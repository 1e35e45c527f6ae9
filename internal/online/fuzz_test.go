package online

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/nist"
)

// fuzzDesigns are the small designs FuzzTrackerWindow drives: the n=128
// designs (blocks shorter than a chunk), one with longest run but no
// block frequency and one with the walk statistics alone, plus a
// custom n=1024 design whose blocks (256 and 128 bits) span chunks, so
// 64-bit pushes take the aligned single-Feed path.
func fuzzDesigns(t testing.TB) []hwblock.Config {
	t.Helper()
	var out []hwblock.Config
	for _, d := range []struct {
		name  string
		n     int
		tests []int
	}{
		{"n128-light", 128, []int{1, 2, 3, 4, 13}},
		{"n128-lr-only", 128, []int{1, 3, 4, 13}},
		{"n128-walk-only", 128, []int{1, 13}},
		{"n1024-light", 1024, []int{1, 2, 3, 4, 13}},
	} {
		cfg, err := hwblock.NewCustomConfig(d.name, d.n, d.tests)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cfg)
	}
	return out
}

// windowRef is the rescan reference: the bits pushed since Reset, one
// per byte, and the design's block lengths.
type windowRef struct {
	cfg    hwblock.Config
	window int
	bits   []byte
}

// check rescans the window and compares every window statistic the
// tracker exports. Walk, ones and runs cover the committed chunks (the
// last Window bits of them); the block tests cover the last Window/M
// completed blocks, closed bits of the in-flight chunk included.
func (r *windowRef) check(t *testing.T, tr *Tracker, step int) {
	t.Helper()
	committed := r.bits[:len(r.bits)/chunkBits*chunkBits]
	win := committed[max(0, len(committed)-r.window):]
	var final, lo, hi, ones, runs int64
	for i, b := range win {
		final += 2*int64(b) - 1
		lo, hi = min(lo, final), max(hi, final)
		ones += int64(b)
		if i == 0 || b != win[i-1] {
			runs++
		}
	}
	gf, glo, ghi := tr.WindowWalk()
	if gf != final || glo != lo || ghi != hi {
		t.Fatalf("step %d: walk (%d,%d,%d), rescan (%d,%d,%d)", step, gf, glo, ghi, final, lo, hi)
	}
	if tr.WindowOnes() != ones || tr.WindowRuns() != runs {
		t.Fatalf("step %d: ones %d runs %d, rescan %d %d", step, tr.WindowOnes(), tr.WindowRuns(), ones, runs)
	}
	// blocks returns the last Window/m completed m-bit blocks.
	blocks := func(m int) [][]byte {
		var out [][]byte
		done := len(r.bits) / m
		for b := max(0, done-r.window/m); b < done; b++ {
			out = append(out, r.bits[b*m:(b+1)*m])
		}
		return out
	}
	if r.cfg.Has(2) {
		m := r.cfg.Params.BlockFrequencyM
		var d int64
		for _, blk := range blocks(m) {
			eps := int64(0)
			for _, b := range blk {
				eps += int64(b)
			}
			d += (2*eps - int64(m)) * (2*eps - int64(m))
		}
		if tr.BlockFreqD() != d {
			t.Fatalf("step %d: block-frequency d %d, rescan %d", step, tr.BlockFreqD(), d)
		}
	}
	if r.cfg.Has(4) {
		m := r.cfg.Params.LongestRunM
		lrLo, lrHi, err := nist.LongestRunClassBounds(m)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, lrHi-lrLo+1)
		for _, blk := range blocks(m) {
			run, longest := 0, 0
			for _, b := range blk {
				run = (run + 1) * int(b)
				longest = max(longest, run)
			}
			want[min(max(longest, lrLo), lrHi)-lrLo]++
		}
		got := tr.LongestRunClasses(nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: longest-run classes %v, rescan %v", step, got, want)
			}
		}
	}
}

// FuzzTrackerWindow drives a tracker with fuzz-chosen pushes and Reset
// points and checks every window statistic against a rescan of the
// window after each push. Each op byte is one push: op ≥ 250 resets the
// tracker, otherwise the push is 1 + op%64 bits of a word whose shape
// op/64 picks (uniform, ones-heavy, zeros-heavy, all ones, so runs
// outlast the longest-run saturation bound).
func FuzzTrackerWindow(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), []byte{63, 63, 63, 63, 63, 63})
	f.Add(uint8(1), uint8(1), int64(2), []byte{0, 200, 191, 255, 63, 7, 130, 64, 64, 250})
	f.Add(uint8(3), uint8(2), int64(3), []byte{255, 63, 127, 191, 63, 63, 31, 32, 63, 63, 63, 63, 63, 63, 63, 63, 63, 63})
	f.Add(uint8(2), uint8(0), int64(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	designs := fuzzDesigns(f)
	f.Fuzz(func(t *testing.T, design, window uint8, seed int64, ops []byte) {
		if len(ops) > 160 { // four n=1024 windows of average pushes
			ops = ops[:160]
		}
		cfg := designs[int(design)%len(designs)]
		// Window 0 is the design default (N); otherwise a small multiple of
		// the longest block, or of a chunk.
		w := 0
		if window%3 > 0 {
			w = int(window%3) * max(chunkBits, cfg.Params.BlockFrequencyM, cfg.Params.LongestRunM)
		}
		tr, err := New(cfg, Config{Window: w})
		if err != nil {
			t.Fatal(err)
		}
		ref := &windowRef{cfg: cfg, window: tr.Window()}
		rng := rand.New(rand.NewSource(seed))
		for step, op := range ops {
			if op >= 250 {
				tr.Reset()
				ref.bits = ref.bits[:0]
				continue
			}
			v := rng.Uint64()
			switch op / 64 {
			case 1:
				v |= rng.Uint64()
			case 2:
				v &= rng.Uint64()
			case 3:
				v = math.MaxUint64
			}
			nbits := 1 + int(op%64)
			tr.Push(v, nbits)
			for i := 0; i < nbits; i++ {
				ref.bits = append(ref.bits, byte(v>>uint(i)&1))
			}
			ref.check(t, tr, step)
		}
	})
}
