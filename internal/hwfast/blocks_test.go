package hwfast

import (
	"fmt"
	"math/rand"
	"testing"
)

// blockStream builds nblocks blocks of m bits, one pattern per block in
// rotation: random at several densities, all ones (the longest-run class
// clamps at hi), all zeros and alternating bits (it clamps at lo).
func blockStream(m, nblocks int, rng *rand.Rand) []byte {
	out := make([]byte, 0, m*nblocks)
	for b := 0; b < nblocks; b++ {
		p := [...]float64{0.5, 0.9, 0.1, 0.7}[b%4]
		for i := 0; i < m; i++ {
			var bit byte
			switch b % 7 {
			case 4:
				bit = 1
			case 5:
				bit = 0
			case 6:
				bit = byte(i & 1)
			default:
				if rng.Float64() < p {
					bit = 1
				}
			}
			out = append(out, bit)
		}
	}
	return out
}

// refBlockFreq and refLongestRun are the per-bit references: the ones
// count and the clamped longest-run class of each m-bit block.
func refBlockFreq(stream []byte, m int) []uint64 {
	var out []uint64
	for b := 0; b+m <= len(stream); b += m {
		var eps uint64
		for _, bit := range stream[b : b+m] {
			eps += uint64(bit)
		}
		out = append(out, eps)
	}
	return out
}

func refLongestRun(stream []byte, m, lo, hi int) []int {
	var out []int
	for b := 0; b+m <= len(stream); b += m {
		run, longest := 0, 0
		for _, bit := range stream[b : b+m] {
			if bit == 1 {
				run++
				longest = max(longest, run)
			} else {
				run = 0
			}
		}
		out = append(out, min(max(longest, lo), hi)-lo)
	}
	return out
}

// schedules returns the segment-size generators: every fixed size 1..64
// and a ragged random one.
func schedules(rng *rand.Rand) map[string]func() int {
	s := make(map[string]func() int)
	for n := 1; n <= 64; n++ {
		n := n
		s[fmt.Sprintf("fixed%d", n)] = func() int { return n }
	}
	s["ragged"] = func() int { return 1 + rng.Intn(64) }
	return s
}

// feedSegments drives feed over stream in segments drawn from next. Each
// segment is packed LSB first with random garbage above its length, which
// the engine must ignore. feed returns (take, closed); feedSegments checks
// that take stops exactly at the block end (or the segment end, whichever
// comes first) and that closed fires exactly there, and returns the number
// of blocks closed.
func feedSegments(t *testing.T, tag string, stream []byte, m int, next func() int, rng *rand.Rand,
	feed func(v uint64, nbits int) (int, bool)) int {
	t.Helper()
	pos, closedBlocks := 0, 0
	for pos < len(stream) {
		nbits := min(next(), len(stream)-pos)
		v := rng.Uint64() << uint(nbits) // garbage above the segment
		for i := 0; i < nbits; i++ {
			v |= uint64(stream[pos+i]) << uint(i)
		}
		for off := 0; off < nbits; {
			want := min(nbits-off, m-pos%m)
			take, closed := feed(v>>uint(off), nbits-off)
			if take != want {
				t.Fatalf("%s@%d: take %d, want %d", tag, pos, take, want)
			}
			pos += take
			if closed != (pos%m == 0) {
				t.Fatalf("%s@%d: closed=%v at in-block position %d", tag, pos, closed, pos%m)
			}
			if closed {
				closedBlocks++
			}
			off += take
		}
	}
	return closedBlocks
}

// TestBlockFreqFeed proves the block-frequency engine against the per-bit
// reference over blocks shorter than a word and blocks spanning words,
// for every segment size.
func TestBlockFreqFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{8, 16, 128, 8192} {
		stream := blockStream(m, max(8, 4096/m), rng)
		want := refBlockFreq(stream, m)
		for name, next := range schedules(rng) {
			b := NewBlockFreq(m)
			var got []uint64
			n := feedSegments(t, name, stream, m, next, rng, func(v uint64, nbits int) (int, bool) {
				take, eps, closed := b.Feed(v, nbits)
				if closed {
					got = append(got, eps)
				}
				return take, closed
			})
			if n != len(want) {
				t.Fatalf("m=%d %s: %d blocks closed, want %d", m, name, n, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d %s: block %d eps %d, want %d", m, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLongestRunFeed proves the longest-run engine, class clamping at both
// ends included, against the per-bit reference over blocks shorter than a
// word and blocks spanning words, for every segment size.
func TestLongestRunFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []int{8, 16, 128, 8192} {
		proto, err := NewLongestRun(m)
		if err != nil {
			t.Fatal(err)
		}
		stream := blockStream(m, max(8, 4096/m), rng)
		lo, hi := proto.Bounds()
		want := refLongestRun(stream, m, lo, hi)
		clampedLo, clampedHi := false, false
		for _, c := range want {
			clampedLo = clampedLo || c == 0
			clampedHi = clampedHi || c == hi-lo
		}
		if !clampedLo || !clampedHi {
			t.Fatalf("m=%d: stream misses a clamp (lo %v, hi %v)", m, clampedLo, clampedHi)
		}
		for name, next := range schedules(rng) {
			b := proto
			var got []int
			n := feedSegments(t, name, stream, m, next, rng, func(v uint64, nbits int) (int, bool) {
				take, class, closed := b.Feed(v, nbits)
				if closed {
					got = append(got, class)
				}
				return take, closed
			})
			if n != len(want) {
				t.Fatalf("m=%d %s: %d blocks closed, want %d", m, name, n, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d %s: block %d class %d, want %d", m, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWalk proves the walk fold against the per-bit walk for every word
// size, with the bits above the word size set at random.
func TestWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for nbits := 1; nbits <= 64; nbits++ {
		for trial := 0; trial < 200; trial++ {
			v := rng.Uint64()
			if trial%4 == 0 {
				v &= rng.Uint64() & rng.Uint64() // long zero runs
			}
			var s, lo, hi int64
			for i := 0; i < nbits; i++ {
				s += int64(v>>uint(i)&1)*2 - 1
				lo, hi = min(lo, s), max(hi, s)
			}
			d, gotLo, gotHi := Walk(v, nbits)
			if d != s || gotLo != lo || gotHi != hi {
				t.Fatalf("nbits=%d v=%#x: (%d,%d,%d), want (%d,%d,%d)", nbits, v, d, gotLo, gotHi, s, lo, hi)
			}
		}
	}
}
