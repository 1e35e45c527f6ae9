package hwblock

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestClockWordsRejectsOverrun pins Block.ClockWords' precondition on both
// ingest paths: a burst that would pass the sequence end is rejected and
// leaves the bit count and the register image as they were, a burst
// ending exactly at the end completes the sequence, and a complete
// sequence takes no further burst. Bits pending in the per-bit buffer
// count toward the position.
func TestClockWordsRejectsOverrun(t *testing.T) {
	cfg := cfg128(t)
	rng := rand.New(rand.NewSource(3))
	ws := []uint64{rng.Uint64(), rng.Uint64()}
	for _, path := range []IngestPath{FastPath, CycleAccurate} {
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetPath(path); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := b.Clock(byte(i)); err != nil {
				t.Fatal(err)
			}
		}
		before := slices.Clone(b.RegFile().Image())
		if err := b.ClockWords(ws); err == nil {
			t.Fatalf("%v: a 128-bit burst with 123 bits left was accepted", path)
		}
		if b.BitsSeen() != 5 || !slices.Equal(b.RegFile().Image(), before) {
			t.Fatalf("%v: a rejected burst changed the block (bits %d)", path, b.BitsSeen())
		}
		if err := b.ClockWord(ws[0], 59); err != nil {
			t.Fatal(err)
		}
		if err := b.ClockWords(ws[1:]); err != nil || !b.Done() {
			t.Fatalf("%v: a burst ending at the sequence end: err %v, done %v", path, err, b.Done())
		}
		if err := b.ClockWords(ws[:1]); err == nil {
			t.Fatalf("%v: a burst after the sequence end was accepted", path)
		}
	}
}

// TestClockWordsObsTotals checks that a burst advances the fast-path
// ingest counters by the totals the per-word feed adds — bits, words and
// the completed sequence — with the pending-bit flush counted as the word
// it is.
func TestClockWordsObsTotals(t *testing.T) {
	cfg, err := NewConfig(65536, High)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	words := make([]uint64, cfg.N/64)
	for i := range words {
		words[i] = rng.Uint64()
	}
	counters := func(burst bool) [3]uint64 {
		reg := obs.NewRegistry()
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.SetObs(reg)
		// Three per-bit clocks leave a partial word pending for the first
		// burst (or word) to flush; a 61-bit word ends the sequence.
		for i := 0; i < 3; i++ {
			if err := b.Clock(byte(words[0] >> uint(i))); err != nil {
				t.Fatal(err)
			}
		}
		for w := 1; w < len(words); w += 16 {
			ws := words[w:min(w+16, len(words))]
			if burst {
				if err := b.ClockWords(ws); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for _, x := range ws {
				if err := b.ClockWord(x, 64); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.ClockWord(words[0]>>3, 61); err != nil {
			t.Fatal(err)
		}
		if !b.Done() {
			t.Fatal("sequence not complete")
		}
		return [3]uint64{
			reg.Counter("trng_ingest_bits_total", "", "path", FastPath.String()).Value(),
			reg.Counter("trng_ingest_words_total", "").Value(),
			reg.Counter("trng_ingest_sequences_total", "").Value(),
		}
	}
	got, want := counters(true), counters(false)
	if got != want {
		t.Fatalf("burst feed counted bits/words/sequences %v, per-word feed %v", got, want)
	}
	if want[0] != uint64(cfg.N) || want[2] != 1 {
		t.Fatalf("per-word feed counted %v", want)
	}
}
