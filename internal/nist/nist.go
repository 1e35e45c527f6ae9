// Package nist implements the complete NIST SP800-22 statistical test suite
// (all 15 tests) as the full-precision software reference. The embedded
// HW/SW platform in internal/hwblock + internal/sweval is validated against
// this package: for every sequence, the decision derived from the hardware
// counters and the integer software routine must match the decision the
// reference test makes at the same level of significance.
//
// Unlike the NIST reference code, the class-probability vectors that tests 4
// (longest run of ones) and 8 (overlapping templates) need are not copied
// from the publication's tables but computed exactly for arbitrary block
// lengths (see distributions.go). This is what lets the platform use
// power-of-two block lengths — the paper's block-detection trick — without
// losing exactness.
package nist

import (
	"errors"
	"fmt"

	"repro/internal/bitstream"
)

// Common errors returned by the tests.
var (
	// ErrTooShort reports that the sequence does not meet the test's
	// minimum length recommendation and the result would be meaningless.
	ErrTooShort = errors.New("nist: sequence too short for this test")
	// ErrNotApplicable reports that the test's applicability conditions
	// (e.g. minimum number of cycles in the random excursions test) are
	// not met; the sequence is neither accepted nor rejected.
	ErrNotApplicable = errors.New("nist: test not applicable to this sequence")
)

// DefaultAlpha is the level of significance NIST recommends when nothing
// else is specified. The standard allows α ∈ [0.001, 0.01].
const DefaultAlpha = 0.01

// PValue is one named P-value produced by a test. Most tests produce one;
// the serial test produces two, the cumulative-sums test two (forward and
// backward), and the random-excursions tests one per state.
type PValue struct {
	Name  string
	Value float64
}

// Result is the outcome of one statistical test on one sequence.
type Result struct {
	// TestID is the test's number in SP800-22 (1–15), matching the
	// paper's Table I numbering.
	TestID int
	// Name is the test's human-readable name.
	Name string
	// N is the number of input bits the test consumed.
	N int
	// PValues holds the P-values; the hypothesis is rejected if any of
	// them falls below α.
	PValues []PValue
	// Stats carries test-specific intermediate statistics, keyed by the
	// symbol used in the publication (e.g. "chi2", "s_obs"). They exist
	// so the HW/SW equivalence tests can compare against the embedded
	// datapath, and for diagnostics.
	Stats map[string]float64
}

// Pass reports whether the randomness hypothesis is accepted at level
// alpha: every P-value must be at least alpha.
func (r *Result) Pass(alpha float64) bool {
	for _, p := range r.PValues {
		if p.Value < alpha {
			return false
		}
	}
	return true
}

// MinP returns the smallest P-value of the result (1 if there are none).
func (r *Result) MinP() float64 {
	min := 1.0
	for _, p := range r.PValues {
		if p.Value < min {
			min = p.Value
		}
	}
	return min
}

// String summarises the result: test number, name, sequence length and
// the smallest p-value.
func (r *Result) String() string {
	return fmt.Sprintf("test %d (%s): n=%d minP=%.6f", r.TestID, r.Name, r.N, r.MinP())
}

func newResult(id int, name string, n int) *Result {
	return &Result{TestID: id, Name: name, N: n, Stats: make(map[string]float64)}
}

func (r *Result) addP(name string, v float64) {
	r.PValues = append(r.PValues, PValue{Name: name, Value: v})
}

// Test is a suite entry: a named statistical test with its SP800-22 number,
// runnable on a sequence with default parameters appropriate for its
// length.
type Test struct {
	ID   int
	Name string
	// HWSuitable mirrors the paper's Table I verdict: whether the test
	// admits a compact bit-serial hardware implementation with simple
	// software finishing arithmetic.
	HWSuitable bool
	// Run executes the test with default parameters for len(s) bits.
	Run func(s *bitstream.Sequence) (*Result, error)
}

// Suite returns all 15 tests in SP800-22 order. Tests whose default
// parameters depend on n pick them the way RecommendedParams does.
func Suite() []Test {
	return []Test{
		{1, "Frequency (Monobit)", true, Frequency},
		{2, "Frequency within a Block", true, func(s *bitstream.Sequence) (*Result, error) {
			return BlockFrequency(s, RecommendedParams(s.Len()).BlockFrequencyM)
		}},
		{3, "Runs", true, Runs},
		{4, "Longest Run of Ones in a Block", true, func(s *bitstream.Sequence) (*Result, error) {
			p := RecommendedParams(s.Len())
			return LongestRunOfOnes(s, p.LongestRunM)
		}},
		{5, "Binary Matrix Rank", false, func(s *bitstream.Sequence) (*Result, error) {
			return Rank(s, 32, 32)
		}},
		{6, "Discrete Fourier Transform (Spectral)", false, DFT},
		{7, "Non-overlapping Template Matching", true, func(s *bitstream.Sequence) (*Result, error) {
			p := RecommendedParams(s.Len())
			return NonOverlappingTemplate(s, p.TemplateB, p.TemplateM, p.NonOverlappingN)
		}},
		{8, "Overlapping Template Matching", true, func(s *bitstream.Sequence) (*Result, error) {
			p := RecommendedParams(s.Len())
			return OverlappingTemplate(s, p.TemplateM, p.OverlappingM)
		}},
		{9, "Maurer's Universal Statistical", false, Universal},
		{10, "Linear Complexity", false, func(s *bitstream.Sequence) (*Result, error) {
			return LinearComplexity(s, 500)
		}},
		{11, "Serial", true, func(s *bitstream.Sequence) (*Result, error) {
			return Serial(s, RecommendedParams(s.Len()).SerialM)
		}},
		{12, "Approximate Entropy", true, func(s *bitstream.Sequence) (*Result, error) {
			return ApproximateEntropy(s, RecommendedParams(s.Len()).SerialM-1)
		}},
		{13, "Cumulative Sums (Cusum)", true, CumulativeSums},
		{14, "Random Excursions", false, RandomExcursions},
		{15, "Random Excursions Variant", false, RandomExcursionsVariant},
	}
}

// Params bundles the default test parameters for a sequence length. The
// block lengths are powers of two, matching the paper's block-detection
// constraint (§III-C "Block detection").
type Params struct {
	BlockFrequencyM int    // test 2 block length
	LongestRunM     int    // test 4 block length
	TemplateM       int    // tests 7/8 template length
	TemplateB       uint32 // test 7 default template (MSB-first)
	NonOverlappingN int    // test 7 number of blocks
	OverlappingM    int    // test 8 block length
	SerialM         int    // test 11 pattern length (test 12 uses m-1)
}

// RecommendedParams returns the default parameters used for a sequence of n
// bits. The three rows correspond to the paper's three supported lengths;
// other lengths get the nearest sensible configuration.
func RecommendedParams(n int) Params {
	switch {
	case n <= 256:
		return Params{
			BlockFrequencyM: 16,
			LongestRunM:     8,
			TemplateM:       9,
			TemplateB:       0b000000001,
			NonOverlappingN: 8,
			OverlappingM:    1024,
			SerialM:         4,
		}
	case n <= 65536:
		return Params{
			BlockFrequencyM: 8192,
			LongestRunM:     128,
			TemplateM:       9,
			TemplateB:       0b000000001,
			NonOverlappingN: 8,
			OverlappingM:    1024,
			SerialM:         4,
		}
	default:
		return Params{
			BlockFrequencyM: 65536,
			LongestRunM:     8192,
			TemplateM:       9,
			TemplateB:       0b000000001,
			NonOverlappingN: 8,
			OverlappingM:    1024,
			SerialM:         4,
		}
	}
}
