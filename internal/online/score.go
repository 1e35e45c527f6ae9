package online

import (
	"math"
	"sync"
)

// Standardization constants for the cumulative-sums range statistic: for
// an ideal ±1 walk over W steps, R = (S_MAX − S_MIN)/√W converges to the
// range of a standard Brownian motion on [0,1], whose mean is √(8/π) and
// whose variance is 4·ln2 − 8/π. The normal approximation is crude in
// the tails but monotone in R, which is all a ranked anomaly score needs;
// DESIGN.md §6.3 derives both constants.
var (
	cusumMean = math.Sqrt(8 / math.Pi)
	cusumSD   = math.Sqrt(4*math.Ln2 - 8/math.Pi)
)

// lrTermTables caches the longest-run χ² term tables by block length and
// ring size, so all trackers of one design share a table: at n65536-light
// one is 24.6 KB, and a tracker per stream would multiply that by the
// fleet's stream count.
var lrTermTables struct {
	mu sync.Mutex
	//trnglint:guardedby mu
	byKey map[[2]int][]float64
}

// lrTermTable returns the χ² term table for k longest-run blocks of
// length m with null class probabilities probs: entry i·(k+1)+c is
// (c − kπᵢ)²/(kπᵢ), computed as e = kπᵢ, d = c − e, d·d/e — the Pearson
// term's direct form, so a sum of entries in class order is bit-identical
// to the direct χ² of a full ring. Trackers call it from New, never from
// Push.
func lrTermTable(m, k int, probs []float64) []float64 {
	lrTermTables.mu.Lock()
	defer lrTermTables.mu.Unlock()
	key := [2]int{m, k}
	if tab, ok := lrTermTables.byKey[key]; ok {
		return tab
	}
	tab := make([]float64, len(probs)*(k+1))
	kf := float64(k)
	for i, p := range probs {
		e := kf * p
		for c := 0; c <= k; c++ {
			d := float64(c) - e
			tab[i*(k+1)+c] = d * d / e
		}
	}
	if lrTermTables.byKey == nil {
		lrTermTables.byKey = make(map[[2]int][]float64)
	}
	lrTermTables.byKey[key] = tab
	return tab
}

// updateScore converts the window statistics to standard scores, folds
// the worst into the EWMA anomaly score, and runs the latch logic. Called
// on every chunk commit once the window is full. The block tests'
// statistics change only when a block closes, so their scores are
// recomputed only then; an unchanged input keeps its bit-identical score.
// The worst score is a builtin max over absolute values, which are never
// NaN, so it selects the same float a compare chain would.
func (t *Tracker) updateScore() {
	// Test 1 (frequency): ones ~ Binomial(W, ½), so 2·ones − W has mean 0
	// and variance W.
	t.scores.Freq = float64(2*t.ones-int64(t.cfg.Window)) / t.sqrtW

	// Test 13 (cumulative sums): window-relative walk range against the
	// Brownian-range null.
	_, mn, mx := t.WindowWalk()
	r := float64(mx-mn) / t.sqrtW
	t.scores.Cusum = (r - cusumMean) / cusumSD

	worst := max(math.Abs(t.scores.Freq), math.Abs(t.scores.Cusum))

	// Test 3 (runs): interior transitions ~ Binomial(W−1, ½).
	if t.hasRuns {
		t.scores.Runs = float64(2*t.trans-int64(t.cfg.Window-1)) / t.sqrtW1
		worst = max(worst, math.Abs(t.scores.Runs))
	}

	// Test 2 (block frequency): Σ(2ε−M)²/M ~ χ² with one degree of
	// freedom per block; standardize by the χ² mean k and SD √(2k).
	if t.hasBF {
		if t.bfDirty {
			chi := float64(t.bfD) / float64(t.bfM)
			t.scores.BlockFreq = (chi - t.bfBlocks) / t.bfSD
			t.bfDirty = false
		}
		worst = max(worst, math.Abs(t.scores.BlockFreq))
	}

	// Test 4 (longest run): Pearson χ² of the window class counters
	// against k·π, standardized by its df mean and √(2·df) SD. The χ²
	// sums memoized terms: scoring runs only on a full window, whose W
	// bits closed at least k = W/M blocks, so the class ring is full and
	// every count c lies in the table's [0, k].
	if t.hasLR {
		if t.lrDirty {
			chi := 0.0
			n := len(t.lrRing)
			for i, c := range t.lrClasses {
				chi += t.lrTerms[i*(n+1)+int(c)]
			}
			t.scores.LongestRun = (chi - t.lrDF) / t.lrSD
			t.lrDirty = false
		}
		worst = max(worst, math.Abs(t.scores.LongestRun))
	}

	t.instant = worst
	t.score = t.decay*t.score + (1-t.decay)*worst

	if t.score >= t.cfg.Threshold {
		t.streak++
		if t.streak >= t.cfg.Confirm && !t.alarmed {
			t.alarmed = true
			t.detectedAt = t.bits
		}
	} else {
		t.streak = 0
	}
}
