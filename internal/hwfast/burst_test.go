package hwfast_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/hwfast"
)

// burstConfigs is every shipped design plus the all-tests custom designs
// at n = 256, whose 32-bit non-overlapping blocks put a block end inside
// every word, and n = 1024.
func burstConfigs(t testing.TB) []hwblock.Config {
	t.Helper()
	out := hwblock.AllConfigs()
	for _, n := range []int{256, 1024} {
		custom, err := hwblock.NewCustomConfig(fmt.Sprintf("burst-n%d", n), n, []int{1, 2, 3, 4, 7, 8, 11, 12, 13})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, custom)
	}
	return out
}

// burstStreams are the word streams the burst tests feed a design:
// random words drawn from seed and blockEdgeWords.
func burstStreams(cfg hwblock.Config, seed int64) map[string][]uint64 {
	return map[string][]uint64{
		"random":      randomWords(cfg.N/64, seed),
		"block-edges": blockEdgeWords(cfg),
	}
}

// blockEdgeWords crafts a stream of zeros with template matches where
// the template engines leave the word fast path for their block scans: in
// a block's first eight positions, whose windows reach back into the
// previous block and must not count, and in the last word of every block,
// which closes it. Non-overlapping block i gets a lone one (the template
// 000000001 after eight zeros) at in-block position i mod 9 and another i
// mod 8 bits before its end; overlapping block i gets a run of ones (the
// all-ones template) ending at in-block position i mod 9 and another
// ending i mod 8 bits before its end.
func blockEdgeWords(cfg hwblock.Config) []uint64 {
	ws := make([]uint64, cfg.N/64)
	ones := func(from, to int) {
		for b := max(from, 0); b < min(to, cfg.N); b++ {
			ws[b/64] |= 1 << uint(b%64)
		}
	}
	if cfg.Has(7) {
		l := cfg.N / cfg.Params.NonOverlappingN
		for i, s := 0, 0; s < cfg.N; i, s = i+1, s+l {
			ones(s+i%9, s+i%9+1)
			ones(s+l-1-i%8, s+l-i%8)
		}
	}
	if cfg.Has(8) {
		l := cfg.Params.OverlappingM
		for i, s := 0, 0; s < cfg.N; i, s = i+1, s+l {
			ones(s+i%9-11, s+i%9+1)
			ones(s+l-11-i%8, s+l-i%8)
		}
	}
	return ws
}

func randomWords(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	return ws
}

// TestClockWordsMatchesClockWord is the burst entry point's differential
// test: on every design, in internal and external mode, a model fed bursts
// of 1–16 whole words through ClockWords must hold exactly the state of a
// model fed the same words one ClockWord(w, 64) call at a time, after
// every burst — every engine, bank, scratch and lazy-sync flag included —
// on random words and on blockEdgeWords.
func TestClockWordsMatchesClockWord(t *testing.T) {
	for _, cfg := range burstConfigs(t) {
		for stream, words := range burstStreams(cfg, int64(cfg.N)+3) {
			for _, external := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/external=%v", cfg.Name, stream, external)
				burst, ref := newModel(t, cfg), newModel(t, cfg)
				burst.SetExternal(external)
				ref.SetExternal(external)
				for w, i := 0, 0; w < len(words); i++ {
					k := min(1+i%16, len(words)-w)
					if err := burst.ClockWords(words[w : w+k]); err != nil {
						t.Fatalf("%s: ClockWords(%d words) at word %d: %v", name, k, w, err)
					}
					for _, x := range words[w : w+k] {
						if err := ref.ClockWord(x, 64); err != nil {
							t.Fatalf("%s: ClockWord at word %d: %v", name, w, err)
						}
					}
					w += k
					if !reflect.DeepEqual(burst, ref) {
						t.Fatalf("%s: state differs after the %d-word burst ending at word %d", name, k, w)
					}
				}
				if !burst.Done() {
					t.Fatalf("%s: sequence not complete after %d words", name, len(words))
				}
			}
		}
	}
}

// TestClockWordsRejectsOverrun pins the burst precondition: a burst that
// would pass the sequence end is rejected with the state untouched, a
// burst ending exactly at the end completes the sequence, and a complete
// sequence takes no further burst.
func TestClockWordsRejectsOverrun(t *testing.T) {
	for _, cfg := range burstConfigs(t) {
		if cfg.N > 65536 {
			continue
		}
		for _, external := range []bool{false, true} {
			name := fmt.Sprintf("%s/external=%v", cfg.Name, external)
			st, ref := newModel(t, cfg), newModel(t, cfg)
			st.SetExternal(external)
			ref.SetExternal(external)
			words := randomWords(cfg.N/64, 11)
			// A ragged prefix leaves the position off the word grid.
			for _, m := range []*hwfast.State{st, ref} {
				if err := m.ClockWord(words[0], 5); err != nil {
					t.Fatal(err)
				}
				if err := m.ClockWords(words[2:]); err != nil {
					t.Fatal(err)
				}
			}
			// 123 bits remain: one word fits, two do not.
			if err := st.ClockWords(words[:2]); err == nil {
				t.Fatalf("%s: a 128-bit burst with 123 bits left was accepted", name)
			}
			if !reflect.DeepEqual(st, ref) {
				t.Fatalf("%s: a rejected burst changed the state", name)
			}
			for _, m := range []*hwfast.State{st, ref} {
				if err := m.ClockWord(words[0], 59); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.ClockWords(words[:1]); err != nil || !st.Done() {
				t.Fatalf("%s: a burst ending at the sequence end: err %v, done %v", name, err, st.Done())
			}
			if err := ref.ClockWord(words[0], 64); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, ref) {
				t.Fatalf("%s: state differs after the final burst", name)
			}
			if err := st.ClockWords(words[:1]); err == nil {
				t.Fatalf("%s: a burst after the sequence end was accepted", name)
			}
			if !reflect.DeepEqual(st, ref) {
				t.Fatalf("%s: a burst rejected after the end changed the state", name)
			}
		}
	}
}

func newModel(t testing.TB, cfg hwblock.Config) *hwfast.State {
	t.Helper()
	st, err := hwfast.New(cfg.N, cfg.Tests, cfg.Params)
	if err != nil {
		t.Fatalf("hwfast.New(%s): %v", cfg.Name, err)
	}
	return st
}

// TestClockWordsBlockImages feeds bursts through hwblock.Block.ClockWords
// on the fast path and on the cycle-accurate golden reference (which
// clocks each word bit by bit) and compares the register images after
// every burst, on every design up to n = 65536, for random words and for
// blockEdgeWords.
func TestClockWordsBlockImages(t *testing.T) {
	for _, cfg := range burstConfigs(t) {
		if cfg.N > 65536 || (testing.Short() && cfg.N > 1024) {
			continue
		}
		for stream, words := range burstStreams(cfg, int64(cfg.N)+5) {
			name := cfg.Name + "/" + stream
			fast, gold := newPair(t, cfg)
			for w, i := 0, 0; w < len(words); i++ {
				k := min(1+i%16, len(words)-w)
				if err := fast.ClockWords(words[w : w+k]); err != nil {
					t.Fatalf("%s fast: ClockWords at word %d: %v", name, w, err)
				}
				if err := gold.ClockWords(words[w : w+k]); err != nil {
					t.Fatalf("%s gold: ClockWords at word %d: %v", name, w, err)
				}
				w += k
				compareImages(t, fast, gold, fmt.Sprintf("%s/word %d", name, w))
			}
			if !fast.Done() || !gold.Done() {
				t.Fatalf("%s: done fast %v gold %v after %d words", name, fast.Done(), gold.Done(), len(words))
			}
		}
	}
}
