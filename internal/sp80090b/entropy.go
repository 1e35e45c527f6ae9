package sp80090b

import (
	"fmt"
	"math"

	"repro/internal/bitstream"
)

// This file implements two of SP800-90B's min-entropy estimators for binary
// sources: the most-common-value estimate and the Markov estimate. The
// repository uses them to validate the TRNG defect models (a p-biased
// source must estimate ≈ −log2(max(p,1−p)) bits/bit; a sticky Markov
// source ≈ −log2(stick)) and to relate the monitor's verdicts to the
// entropy the source actually delivers.

// MCVEstimate is the most-common-value min-entropy estimate (SP800-90B
// §6.3.1): a conservative bound from the frequency of the most common
// symbol, using the upper end of a 99 % confidence interval.
type MCVEstimate struct {
	// PHat is the observed frequency of the most common value.
	PHat float64
	// PUpper is the 99 % upper confidence bound on that frequency.
	PUpper float64
	// MinEntropy is −log2(PUpper) bits per bit.
	MinEntropy float64
}

// MostCommonValue computes the MCV estimate over a sequence.
func MostCommonValue(s *bitstream.Sequence) (*MCVEstimate, error) {
	n := s.Len()
	if n < 2 {
		return nil, fmt.Errorf("sp80090b: sequence too short for entropy estimation")
	}
	ones := s.Ones()
	count := ones
	if n-ones > count {
		count = n - ones
	}
	return MCVFromCounts(count, n), nil
}

// MCVFromCounts is the count-to-estimate arithmetic of MostCommonValue:
// count is the occurrence count of the most common value among n bits.
// The sliding-window estimate (online.Tracker.MCV) calls it too, which is
// what makes it bit-identical to the batch one over the same bits.
func MCVFromCounts(count, n int) *MCVEstimate {
	pHat := float64(count) / float64(n)
	// z for a one-sided 99% bound.
	const z99 = 2.5758293035489004
	pUpper := pHat + z99*math.Sqrt(pHat*(1-pHat)/float64(n-1))
	if pUpper > 1 {
		pUpper = 1
	}
	minEnt := -math.Log2(pUpper)
	if minEnt < 0 {
		minEnt = 0
	}
	return &MCVEstimate{PHat: pHat, PUpper: pUpper, MinEntropy: minEnt}
}

// MarkovEstimate is the first-order Markov min-entropy estimate (SP800-90B
// §6.3.3, binary case): transition probabilities bound the likelihood of
// the most probable long output sequence.
type MarkovEstimate struct {
	// P0 and P1 are the stationary estimates P(0), P(1).
	P0, P1 float64
	// T holds the transition probabilities T[a][b] = P(next=b | cur=a).
	T [2][2]float64
	// MinEntropy is the per-bit min-entropy bound.
	MinEntropy float64
}

// Markov computes the Markov estimate over a sequence.
func Markov(s *bitstream.Sequence) (*MarkovEstimate, error) {
	n := s.Len()
	if n < 3 {
		return nil, fmt.Errorf("sp80090b: sequence too short for Markov estimation")
	}
	var trans [2][2]float64
	for i := 0; i+1 < n; i++ {
		trans[s.Bit(i)][s.Bit(i+1)]++
	}
	return MarkovFromCounts(trans, float64(s.Ones()), n), nil
}

// MarkovFromCounts is the count-to-estimate arithmetic of Markov: trans
// holds the adjacent-pair counts over n bits (n−1 pairs), ones the ones
// count. The sliding-window estimate (online.Tracker.Markov) calls it too,
// for bit-identical estimates over the same bits.
func MarkovFromCounts(trans [2][2]float64, ones float64, n int) *MarkovEstimate {
	var from [2]float64
	for a := 0; a < 2; a++ {
		from[a] = trans[a][0] + trans[a][1]
	}
	e := &MarkovEstimate{}
	e.P1 = ones / float64(n)
	e.P0 = 1 - e.P1
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if from[a] == 0 {
				// Degenerate input: the symbol never occurs; assign the
				// worst case (deterministic transition).
				e.T[a][b] = 1
				continue
			}
			e.T[a][b] = trans[a][b] / from[a]
		}
	}
	// The most probable sequence of length L starts at the more probable
	// state and follows the highest-probability transitions. Following
	// SP800-90B's simplification for the binary case, evaluate the
	// likelihood of the most probable 128-step path and normalize.
	const steps = 128
	best := math.Inf(-1)
	for start := 0; start < 2; start++ {
		p0 := e.P0
		if start == 1 {
			p0 = e.P1
		}
		if p0 == 0 {
			continue
		}
		// Dynamic program over the two states for the max-likelihood
		// path in log space.
		var cur [2]float64
		cur[0], cur[1] = math.Inf(-1), math.Inf(-1)
		cur[start] = math.Log2(p0)
		for i := 1; i < steps; i++ {
			var next [2]float64
			for b := 0; b < 2; b++ {
				next[b] = math.Inf(-1)
				for a := 0; a < 2; a++ {
					if e.T[a][b] == 0 {
						continue
					}
					cand := cur[a] + math.Log2(e.T[a][b])
					if cand > next[b] {
						next[b] = cand
					}
				}
			}
			cur = next
		}
		for b := 0; b < 2; b++ {
			if cur[b] > best {
				best = cur[b]
			}
		}
	}
	e.MinEntropy = -best / steps
	if e.MinEntropy > 1 {
		e.MinEntropy = 1
	}
	return e
}
