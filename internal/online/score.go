package online

import "math"

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

// updateScore converts the window statistics to standard scores, folds
// the worst into the EWMA anomaly score, and runs the latch logic. Called
// on every chunk commit once the window is full. The block tests'
// statistics change only when a block closes, so their scores are
// recomputed only then; an unchanged input keeps its bit-identical score.
func (t *Tracker) updateScore() {
	// Test 1 (frequency): ones ~ Binomial(W, ½), so 2·ones − W has mean 0
	// and variance W.
	t.scores.Freq = float64(2*t.ones-int64(t.cfg.Window)) / t.sqrtW

	// Test 13 (cumulative sums): window-relative walk range against the
	// Brownian-range null.
	_, mn, mx := t.WindowWalk()
	r := float64(mx-mn) / t.sqrtW
	t.scores.Cusum = (r - cusumMean) / cusumSD

	worst := math.Abs(t.scores.Freq)
	if a := math.Abs(t.scores.Cusum); a > worst {
		worst = a
	}

	// Test 3 (runs): interior transitions ~ Binomial(W−1, ½).
	if t.hasRuns {
		t.scores.Runs = float64(2*t.trans-int64(t.cfg.Window-1)) / t.sqrtW1
		if a := math.Abs(t.scores.Runs); a > worst {
			worst = a
		}
	}

	// Test 2 (block frequency): Σ(2ε−M)²/M ~ χ² with one degree of
	// freedom per block; standardize by the χ² mean k and SD √(2k).
	if t.hasBF {
		if t.bfDirty {
			chi := float64(t.bfD) / float64(t.bfM)
			t.scores.BlockFreq = (chi - t.bfBlocks) / math.Sqrt(2*t.bfBlocks)
			t.bfDirty = false
		}
		if a := math.Abs(t.scores.BlockFreq); a > worst {
			worst = a
		}
	}

	// Test 4 (longest run): Pearson χ² of the window class counters
	// against k·π, standardized by its df mean and √(2·df) SD.
	if t.hasLR {
		if t.lrDirty {
			k := float64(t.lrCount)
			chi := 0.0
			for i, c := range t.lrClasses {
				e := k * t.lrProbs[i]
				d := float64(c) - e
				chi += d * d / e
			}
			t.scores.LongestRun = (chi - t.lrDF) / math.Sqrt(2*t.lrDF)
			t.lrDirty = false
		}
		if a := math.Abs(t.scores.LongestRun); a > worst {
			worst = a
		}
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
