package online

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/nist"
)

// TestLRTermTableExact proves the memoized longest-run χ² terms are
// bit-identical to the direct expression for every class i and count
// c ∈ [0, k], at every shipped design's default and short window (the
// golden trajectory's windows), and that trackers of one design share
// one table.
func TestLRTermTableExact(t *testing.T) {
	for _, cfg := range hwblock.AllConfigs() {
		if !cfg.Has(4) {
			continue
		}
		for _, window := range []int{0, 3 * max(64, cfg.Params.BlockFrequencyM)} {
			name := fmt.Sprintf("%s/w%d", cfg.Name, window)
			tr, err := New(cfg, Config{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			m := cfg.Params.LongestRunM
			lo, hi, err := nist.LongestRunClassBounds(m)
			if err != nil {
				t.Fatal(err)
			}
			probs, err := nist.LongestRunClassProbs(m, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			k := tr.Window() / m
			if len(tr.lrTerms) != len(probs)*(k+1) {
				t.Fatalf("%s: table has %d entries, want %d classes × %d counts", name, len(tr.lrTerms), len(probs), k+1)
			}
			for i, p := range probs {
				for c := 0; c <= k; c++ {
					e := float64(k) * p
					d := float64(c) - e
					want := d * d / e
					if got := tr.lrTerms[i*(k+1)+c]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: class %d count %d: table %v, direct %v", name, i, c, got, want)
					}
				}
			}
			again, err := New(cfg, Config{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			if &again.lrTerms[0] != &tr.lrTerms[0] {
				t.Fatalf("%s: two trackers built separate tables", name)
			}
		}
	}
}
