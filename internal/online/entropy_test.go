package online

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/sp80090b"
	"repro/internal/trng"
)

// entropyTracker builds a tracker on the n=128 light design with the
// given window.
func entropyTracker(t *testing.T, window int) *Tracker {
	t.Helper()
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(cfg, Config{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestEntropyMatchesBatch proves the sliding-window estimates are
// bit-identical to the batch estimators run over the window's bits, at
// every chunk-aligned position, over healthy and defective sources.
func TestEntropyMatchesBatch(t *testing.T) {
	const window = 1024
	srcs := map[string]trng.Source{
		"ideal":  trng.NewIdeal(31),
		"biased": trng.NewBiased(0.7, 32),
		"markov": trng.NewMarkov(0.8, 33),
		"stuck":  trng.NewStuckAt(1),
	}
	for name, src := range srcs {
		tr := entropyTracker(t, window)
		var stream []byte
		rng := rand.New(rand.NewSource(int64(len(name))))
		for fed := 0; fed < 4*window; {
			// Ragged word widths exercise the chunk accumulator.
			nb := 64
			if rng.Intn(3) == 0 {
				nb = 1 + rng.Intn(64)
			}
			var w uint64
			for i := 0; i < nb; i++ {
				b := readBit(t, src)
				w |= uint64(b) << uint(i)
				stream = append(stream, b)
			}
			tr.Push(w, nb)
			fed += nb
			if !tr.Primed() {
				continue
			}
			// The window ends at the last chunk commit.
			end := len(stream) - len(stream)%64
			seq := bitstream.FromBits(stream[end-window : end])
			wantMCV, err := sp80090b.MostCommonValue(seq)
			if err != nil {
				t.Fatal(err)
			}
			gotMCV, err := tr.MCV()
			if err != nil {
				t.Fatal(err)
			}
			if *gotMCV != *wantMCV {
				t.Fatalf("%s@%d: MCV online %+v != batch %+v", name, end, gotMCV, wantMCV)
			}
			wantMk, err := sp80090b.Markov(seq)
			if err != nil {
				t.Fatal(err)
			}
			gotMk, err := tr.Markov()
			if err != nil {
				t.Fatal(err)
			}
			if *gotMk != *wantMk {
				t.Fatalf("%s@%d: Markov online %+v != batch %+v", name, end, gotMk, wantMk)
			}
			if want := min(wantMCV.MinEntropy, wantMk.MinEntropy); tr.MinEntropy() != want {
				t.Fatalf("%s@%d: MinEntropy %v != %v", name, end, tr.MinEntropy(), want)
			}
		}
	}
}

// TestEntropyUnprimed pins the before-window-full contract.
func TestEntropyUnprimed(t *testing.T) {
	tr := entropyTracker(t, 256)
	tr.Push(^uint64(0), 64)
	if tr.Primed() {
		t.Fatal("primed after 64 of 256 bits")
	}
	if _, err := tr.MCV(); err == nil {
		t.Fatal("MCV before primed did not error")
	}
	if _, err := tr.Markov(); err == nil {
		t.Fatal("Markov before primed did not error")
	}
	if tr.MinEntropy() != -1 {
		t.Fatalf("MinEntropy before primed = %v, want -1", tr.MinEntropy())
	}
}

// TestEntropyWindowSlides proves old bits really leave the estimate: a
// random prefix followed by a window of stuck bits must estimate exactly
// like a pure stuck window (min-entropy 0).
func TestEntropyWindowSlides(t *testing.T) {
	tr := entropyTracker(t, 128)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		tr.Push(uint64(rng.Int63())&1, 1)
	}
	for i := 0; i < 200; i++ {
		tr.Push(1, 1)
	}
	// 500 bits fed: not chunk-aligned yet — push 12 more stuck bits.
	tr.Push(0xFFF, 12)
	mcv, err := tr.MCV()
	if err != nil {
		t.Fatal(err)
	}
	if mcv.PHat != 1 || mcv.MinEntropy != 0 {
		t.Fatalf("stuck window: MCV %+v, want pHat=1 minEntropy=0", mcv)
	}
	mk, err := tr.Markov()
	if err != nil {
		t.Fatal(err)
	}
	if mk.MinEntropy != 0 {
		t.Fatalf("stuck window: Markov %+v, want minEntropy=0", mk)
	}
}

// TestEntropyReset proves Reset restores a fresh tracker's estimates.
func TestEntropyReset(t *testing.T) {
	a := entropyTracker(t, 128)
	b := entropyTracker(t, 128)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		a.Push(uint64(rng.Int63()), 64)
	}
	a.Reset()
	if a.BitsSeen() != 0 || a.Primed() || a.MinEntropy() != -1 {
		t.Fatal("reset did not clear state")
	}
	rng2 := rand.New(rand.NewSource(10))
	for i := 0; i < 10; i++ {
		w := uint64(rng2.Int63())
		a.Push(w, 57)
		b.Push(w, 57)
	}
	if am, bm := a.MinEntropy(), b.MinEntropy(); am != bm || am == -1 {
		t.Fatalf("reset tracker diverged: %v vs %v", am, bm)
	}
}
