package hwfast_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/hwfast"
)

// burstConfigs is every shipped design plus the all-tests custom design.
func burstConfigs(t testing.TB) []hwblock.Config {
	t.Helper()
	custom, err := hwblock.NewCustomConfig("burst-n1024", 1024, []int{1, 2, 3, 4, 7, 8, 11, 12, 13})
	if err != nil {
		t.Fatal(err)
	}
	return append(hwblock.AllConfigs(), custom)
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
// every burst — every engine, bank, scratch and lazy-sync flag included.
func TestClockWordsMatchesClockWord(t *testing.T) {
	for _, cfg := range burstConfigs(t) {
		for _, external := range []bool{false, true} {
			name := fmt.Sprintf("%s/external=%v", cfg.Name, external)
			burst, ref := newModel(t, cfg), newModel(t, cfg)
			burst.SetExternal(external)
			ref.SetExternal(external)
			words := randomWords(cfg.N/64, int64(cfg.N)+3)
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
// every burst, on every design up to n = 65536.
func TestClockWordsBlockImages(t *testing.T) {
	for _, cfg := range burstConfigs(t) {
		if cfg.N > 65536 || (testing.Short() && cfg.N > 1024) {
			continue
		}
		fast, gold := newPair(t, cfg)
		words := randomWords(cfg.N/64, int64(cfg.N)+5)
		for w, i := 0, 0; w < len(words); i++ {
			k := min(1+i%16, len(words)-w)
			if err := fast.ClockWords(words[w : w+k]); err != nil {
				t.Fatalf("%s fast: ClockWords at word %d: %v", cfg.Name, w, err)
			}
			if err := gold.ClockWords(words[w : w+k]); err != nil {
				t.Fatalf("%s gold: ClockWords at word %d: %v", cfg.Name, w, err)
			}
			w += k
			compareImages(t, fast, gold, fmt.Sprintf("%s/word %d", cfg.Name, w))
		}
		if !fast.Done() || !gold.Done() {
			t.Fatalf("%s: done fast %v gold %v after %d words", cfg.Name, fast.Done(), gold.Done(), len(words))
		}
	}
}
