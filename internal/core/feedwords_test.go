package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/obs"
)

func burstWords(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	return ws
}

// TestFeedWordsMatchesFeedWord feeds two sequences through two monitors:
// one takes every mid-sequence word in FeedWords bursts of 1–16 words and
// the last word of each sequence through FeedWord, the other takes every
// word through FeedWord. Reports and bit counts must be identical.
func TestFeedWordsMatchesFeedWord(t *testing.T) {
	for _, v := range []struct {
		n int
		v hwblock.Variant
	}{{128, hwblock.Medium}, {65536, hwblock.High}} {
		burst, ref := newMonitor(t, v.n, v.v, 0.01), newMonitor(t, v.n, v.v, 0.01)
		seqWords := v.n / 64
		words := burstWords(2*seqWords, int64(v.n))
		for s := 0; s < 2; s++ {
			seq := words[s*seqWords : (s+1)*seqWords]
			mid, last := seq[:seqWords-1], seq[seqWords-1]
			for w, i := 0, 0; w < len(mid); i++ {
				k := min(1+i%16, len(mid)-w)
				if err := burst.FeedWords(mid[w : w+k]); err != nil {
					t.Fatalf("n=%d: FeedWords(%d words) at word %d: %v", v.n, k, w, err)
				}
				w += k
			}
			for _, x := range mid {
				if rep, err := ref.FeedWord(x, 64); err != nil || rep != nil {
					t.Fatalf("n=%d: mid-sequence FeedWord: report %v, err %v", v.n, rep, err)
				}
			}
			if burst.BitsSeen() != ref.BitsSeen() || burst.SequenceBits() != ref.SequenceBits() {
				t.Fatalf("n=%d: bits seen %d/%d, sequence bits %d/%d", v.n,
					burst.BitsSeen(), ref.BitsSeen(), burst.SequenceBits(), ref.SequenceBits())
			}
			got, err := burst.FeedWord(last, 64)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.FeedWord(last, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d sequence %d: burst-fed report %+v, want %+v", v.n, s, got, want)
			}
		}
	}
}

// TestFeedWordsRejectsBoundary pins FeedWords' precondition: a burst must
// end strictly before the sequence's last bit. One that would reach or
// pass the boundary returns an error and clocks nothing.
func TestFeedWordsRejectsBoundary(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Medium, 0.01)
	ws := burstWords(2, 1)
	if err := m.FeedWords(ws); err == nil {
		t.Fatal("a burst reaching the boundary from bit 0 was accepted")
	}
	if m.SequenceBits() != 0 || m.BitsSeen() != 0 {
		t.Fatalf("rejected burst clocked bits: sequence %d, seen %d", m.SequenceBits(), m.BitsSeen())
	}
	if err := m.FeedWords(ws[:1]); err != nil {
		t.Fatal(err)
	}
	if err := m.FeedWords(ws[1:]); err == nil {
		t.Fatal("a burst ending exactly at the boundary was accepted")
	}
	if m.SequenceBits() != 64 || m.BitsSeen() != 64 {
		t.Fatalf("rejected burst clocked bits: sequence %d, seen %d", m.SequenceBits(), m.BitsSeen())
	}

	// Off the word grid: after 5 bits, 1023 words end 59 bits short of
	// the boundary and one more word would pass it.
	big := newMonitor(t, 65536, hwblock.High, 0.01)
	words := burstWords(1024, 2)
	if _, err := big.FeedWord(words[0], 5); err != nil {
		t.Fatal(err)
	}
	if err := big.FeedWords(words[1:]); err != nil {
		t.Fatal(err)
	}
	if err := big.FeedWords(words[:1]); err == nil {
		t.Fatal("a burst passing the boundary was accepted")
	}
	if got := big.SequenceBits(); got != 65536-59 {
		t.Fatalf("sequence bits %d after a rejected burst, want %d", got, 65536-59)
	}
	if rep, err := big.FeedWord(words[0], 59); err != nil || rep == nil {
		t.Fatalf("completing word: report %v, err %v", rep, err)
	}
}

// BenchmarkMonitorFeedWords measures the monitor's residual feed as a
// bit-sliced fleet lane drives it: an n65536-high monitor in sliced
// (external) mode, with an obs registry attached, takes mid-sequence words one FeedWord call each, or 16
// per FeedWords call; ns/op is per word in both rows. A monitor that
// reaches its final word is Reset instead of evaluated, so the rows time
// the feed chain (core → hwblock → hwfast), not the sequence boundary.
func BenchmarkMonitorFeedWords(b *testing.B) {
	const burst = 16
	cfg, err := hwblock.NewConfig(65536, hwblock.High)
	if err != nil {
		b.Fatal(err)
	}
	words := burstWords(cfg.N/64, 1)
	mid := len(words) - 1
	setup := func(b *testing.B) *Monitor {
		m, err := NewMonitor(cfg, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Block().SetSliced(true); err != nil {
			b.Fatal(err)
		}
		m.SetObs(obs.NewRegistry())
		b.ReportAllocs()
		b.ResetTimer()
		return m
	}
	b.Run("n65536-high/FeedWord", func(b *testing.B) {
		m := setup(b)
		for i := 0; i < b.N; i++ {
			w := m.SequenceBits() / 64
			if w == mid {
				m.Reset()
				w = 0
			}
			if _, err := m.FeedWord(words[w], 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("n65536-high/FeedWords16", func(b *testing.B) {
		m := setup(b)
		for i := 0; i < b.N; {
			w := m.SequenceBits() / 64
			if w == mid {
				m.Reset()
				w = 0
			}
			k := min(burst, b.N-i, mid-w)
			if err := m.FeedWords(words[w : w+k]); err != nil {
				b.Fatal(err)
			}
			i += k
		}
	})
}
