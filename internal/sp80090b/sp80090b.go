// Package sp80090b implements the two continuous health tests of NIST
// SP800-90B (the draft the paper cites as [2], which "also requires
// on-the-fly tests (health tests) for random number generators"): the
// Repetition Count Test and the Adaptive Proportion Test, for binary
// sources.
//
// These tests are the minimal health monitoring a standard-compliant
// entropy source must carry. They are dramatically cheaper than the
// paper's NIST-suite monitor — a handful of counters — but they only catch
// catastrophic failures (stuck outputs, extreme bias). The repository uses
// them as the contrast class: the detection-power experiments show which
// defects escape RCT/APT and are caught only by the statistical monitor.
//
// The package also implements the standard's initial-assessment side:
// the most-common-value (MCV) and first-order Markov min-entropy
// estimators over fixed samples (entropy.go) and their
// structural-hardware cost model (hw.go). The estimators' count-to-estimate
// arithmetic is exported (MCVFromCounts, MarkovFromCounts) so that
// internal/online's Tracker can report the same estimates over its
// sliding window, from counts its chunk ring already keeps, alongside the
// online anomaly score.
//
// Every type here is a pure function of the bits pushed since its
// construction or Reset — no clocks, no randomness — which is what the
// //trnglint:deterministic annotation below asserts and the trnglint
// analyzer enforces.
//
//trnglint:deterministic
package sp80090b

import (
	"fmt"
	"math"
)

// DefaultAlpha is the false-positive probability SP800-90B recommends for
// the health tests (2^-20).
var DefaultAlpha = math.Pow(2, -20)

// RepetitionCountTest detects when the source emits the same value too many
// times in a row. For a source asserted to provide H bits of entropy per
// sample, the cutoff is C = 1 + ceil(-log2(alpha)/H); reaching a run of C
// identical samples is an alarm.
type RepetitionCountTest struct {
	cutoff int
	last   byte
	run    int
	primed bool
	alarms int
}

// NewRepetitionCountTest builds an RCT for entropy h bits/sample at
// false-positive probability alpha.
func NewRepetitionCountTest(h, alpha float64) (*RepetitionCountTest, error) {
	if h <= 0 || h > 1 {
		return nil, fmt.Errorf("sp80090b: entropy per bit %g out of (0,1]", h)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("sp80090b: alpha %g out of range", alpha)
	}
	return &RepetitionCountTest{
		cutoff: 1 + int(math.Ceil(-math.Log2(alpha)/h)),
	}, nil
}

// Cutoff returns the alarm run length.
func (t *RepetitionCountTest) Cutoff() int { return t.cutoff }

// Feed consumes one bit and reports whether it raised an alarm.
func (t *RepetitionCountTest) Feed(bit byte) bool {
	bit &= 1
	if !t.primed || bit != t.last {
		t.last = bit
		t.run = 1
		t.primed = true
		return false
	}
	t.run++
	if t.run >= t.cutoff {
		t.alarms++
		t.run = 1 // restart after alarm, per the continuous-test model
		return true
	}
	return false
}

// Alarms returns the number of alarms raised so far.
func (t *RepetitionCountTest) Alarms() int { return t.alarms }

// Reset returns the test to its initial state.
func (t *RepetitionCountTest) Reset() {
	t.run, t.alarms, t.primed = 0, 0, false
}

// AdaptiveProportionTest detects when one value dominates a window: it
// records the first sample of each W-sample window and counts its
// recurrences; an alarm is raised if the count reaches the cutoff, chosen
// as the smallest C with P(Binomial(W−1, p) ≥ C−1) ≤ alpha, where
// p = 2^−H for the asserted entropy.
type AdaptiveProportionTest struct {
	window  int
	cutoff  int
	first   byte
	count   int
	samples int
	alarms  int
}

// DefaultWindow is the SP800-90B window size for binary sources.
const DefaultWindow = 1024

// NewAdaptiveProportionTest builds an APT for entropy h bits/sample at
// false-positive probability alpha over the given window (use
// DefaultWindow for the standard's binary configuration).
func NewAdaptiveProportionTest(h, alpha float64, window int) (*AdaptiveProportionTest, error) {
	if h <= 0 || h > 1 {
		return nil, fmt.Errorf("sp80090b: entropy per bit %g out of (0,1]", h)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("sp80090b: alpha %g out of range", alpha)
	}
	if window < 16 {
		return nil, fmt.Errorf("sp80090b: window %d too small", window)
	}
	p := math.Pow(2, -h)
	cutoff, err := binomialCutoff(window-1, p, alpha)
	if err != nil {
		return nil, err
	}
	return &AdaptiveProportionTest{window: window, cutoff: cutoff + 1}, nil
}

// Cutoff returns the alarm count.
func (t *AdaptiveProportionTest) Cutoff() int { return t.cutoff }

// Window returns the window size.
func (t *AdaptiveProportionTest) Window() int { return t.window }

// Feed consumes one bit and reports whether it raised an alarm.
func (t *AdaptiveProportionTest) Feed(bit byte) bool {
	bit &= 1
	if t.samples == 0 {
		t.first = bit
		t.count = 1
		t.samples = 1
		return false
	}
	t.samples++
	if bit == t.first {
		t.count++
	}
	alarm := false
	if t.count >= t.cutoff {
		t.alarms++
		alarm = true
		t.samples = 0 // restart the window after an alarm
		return alarm
	}
	if t.samples == t.window {
		t.samples = 0
	}
	return false
}

// Alarms returns the number of alarms raised so far.
func (t *AdaptiveProportionTest) Alarms() int { return t.alarms }

// Reset returns the test to its initial state.
func (t *AdaptiveProportionTest) Reset() {
	t.samples, t.count, t.alarms = 0, 0, 0
}

// binomialCutoff returns the smallest c with P(Binomial(n, p) ≥ c) ≤ alpha,
// evaluated in log space to stay accurate at alpha = 2^-20.
func binomialCutoff(n int, p, alpha float64) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("sp80090b: invalid binomial n=%d", n)
	}
	// Work downward from c = n, accumulating the upper tail.
	logP := math.Log(p)
	logQ := math.Log(1 - p)
	tail := 0.0
	lgN, _ := math.Lgamma(float64(n + 1))
	for c := n; c >= 0; c-- {
		lgK, _ := math.Lgamma(float64(c + 1))
		lgNK, _ := math.Lgamma(float64(n - c + 1))
		logTerm := lgN - lgK - lgNK + float64(c)*logP + float64(n-c)*logQ
		tail += math.Exp(logTerm)
		if tail > alpha {
			if c == n {
				return 0, fmt.Errorf("sp80090b: no cutoff satisfies alpha=%g", alpha)
			}
			return c + 1, nil
		}
	}
	return 0, nil
}
