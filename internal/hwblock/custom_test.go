package hwblock_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/sweval"
	"repro/internal/trng"
)

// TestNewCustomConfigTestLists builds custom designs from test lists in
// any order: the design lists its tests ascending without touching the
// caller's slice, a repeated test is an error, and a design from an
// unsorted list is the same design as from the sorted one, down to its
// evaluation: verdicts ascending by TestID, one per test, at the sorted
// design's cost.
func TestNewCustomConfigTestLists(t *testing.T) {
	for _, c := range []struct {
		name  string
		tests []int
		want  []int  // the design's tests, when accepted
		err   string // the error, when rejected
	}{
		{"sorted", []int{1, 13}, []int{1, 13}, ""},
		{"reversed", []int{13, 1}, []int{1, 13}, ""},
		{"shuffled", []int{13, 4, 1, 12, 2, 11, 3}, []int{1, 2, 3, 4, 11, 12, 13}, ""},
		{"repeated", []int{1, 1, 13}, nil, "test 1 is listed twice"},
		{"repeated apart", []int{13, 1, 13}, nil, "test 13 is listed twice"},
		{"unimplementable", []int{13, 5}, nil, "test 5 has no on-the-fly hardware implementation"},
	} {
		in := slices.Clone(c.tests)
		cfg, err := hwblock.NewCustomConfig("p", 1024, in)
		if !slices.Equal(in, c.tests) {
			t.Errorf("%s: the caller's list became %v", c.name, in)
		}
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(cfg.Tests, c.want) {
			t.Errorf("%s: tests %v, want %v", c.name, cfg.Tests, c.want)
		}
		sorted, err := hwblock.NewCustomConfig("p", 1024, c.want)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.CheckSame(sorted); err != nil {
			t.Errorf("%s: not the sorted list's design: %v", c.name, err)
		}
		got, want := evaluateOnce(t, cfg), evaluateOnce(t, sorted)
		var ids []int
		for _, v := range got.Verdicts {
			ids = append(ids, v.TestID)
		}
		if !slices.Equal(ids, c.want) {
			t.Errorf("%s: verdicts for tests %v, want %v", c.name, ids, c.want)
		}
		if got.Cost != want.Cost {
			t.Errorf("%s: cost %v, the sorted design's %v", c.name, got.Cost, want.Cost)
		}
	}
}

// evaluateOnce runs one ideal sequence through a block of cfg and returns
// the metered evaluation.
func evaluateOnce(t *testing.T, cfg hwblock.Config) *sweval.Report {
	t.Helper()
	b, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(bitstream.NewReader(trng.Read(trng.NewIdeal(5), cfg.N))); err != nil {
		t.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweval.NewEvaluator(cv).Evaluate(b)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
