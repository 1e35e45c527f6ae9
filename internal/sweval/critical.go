package sweval

import (
	"fmt"
	"math"

	"repro/internal/hwblock"
	"repro/internal/nist"
	"repro/internal/specfunc"
)

// RunsMethod selects how the runs test's acceptance bound is evaluated on
// the embedded core.
type RunsMethod int

const (
	// RunsExact computes the bound from N_ones with fixed-point integer
	// arithmetic (one multiply, one shift, comparisons). Bit-exact
	// agreement with the reference test's decision.
	RunsExact RunsMethod = iota
	// RunsTable looks the bound up in a precompiled interval table
	// indexed by where N_ones falls — the method the paper describes
	// ("the SW procedure first checks the interval where N_ones belongs
	// and based on the result, compares N_runs with the appropriate
	// constant"). Slightly conservative at interval edges.
	RunsTable
)

// runsRow is one row of the RunsTable method: while |S_final| ≤ sAbsMax,
// the accepted runs count is [vLo, vHi].
type runsRow struct {
	sAbsMax int64
	vLo     int64
	vHi     int64
}

// CriticalValues holds every constant the embedded software needs for one
// design at one level of significance — the data a real deployment would
// compile into firmware. Computing them uses floating point and the
// special functions, but happens offline; the evaluation path (eval.go)
// touches only these integers.
type CriticalValues struct {
	// Alpha is the level of significance the constants encode.
	Alpha float64
	cfg   hwblock.Config
	regs  *hwblock.RegMap // the design's register map
	banks hwblock.Banks   // regs' banks, read by every pass

	// Test 1: fail iff |S_final| > monobitSMax.
	monobitSMax int64

	// Test 2: fail iff Σ(2ε_i − M)² > blockFreqMax.
	blockFreqMax int64

	// Test 3, exact method: precondition fail iff |S_final| ≥ runsPreSAbs;
	// then fail iff |n·V − 2·ones·zeros| > (runsKQ16·ones·zeros) >> 16.
	runsPreSAbs int64
	runsKQ16    int64
	// Test 3, table method.
	runsMethod RunsMethod
	runsRows   []runsRow

	// Test 4: fail iff Σ ν_i²·longestRunQ16[i] > longestRunMax (Q16).
	longestRunQ16 []int64
	longestRunMax int64

	// Test 7: fail iff Σ(2^m·W_i − (M−m+1))² > nonOvMax.
	nonOvMax int64

	// Test 8: fail iff Σ ν_i²·overlapQ16[i] > overlapMax (Q16).
	overlapQ16 []int64
	overlapMax int64

	// Test 11: fail iff n·∇ψ² > serialMax1 or n·∇²ψ² > serialMax2.
	serialMax1 int64
	serialMax2 int64

	// Test 12: fail iff apenQ16 < apenMinQ16, with apenQ16 evaluated
	// through the PWL table.
	apenMinQ16 int64
	pwl        *XLogXTable

	// Test 13: fail iff z ≥ cusumZMin (either direction).
	cusumZMin int64
}

// Option tweaks the critical-value computation.
type Option func(*CriticalValues)

// WithRunsMethod selects the runs-test evaluation method (default
// RunsTable, the paper's approach).
func WithRunsMethod(m RunsMethod) Option {
	return func(cv *CriticalValues) { cv.runsMethod = m }
}

// runsTableRows is the number of N_ones intervals in the RunsTable method.
const runsTableRows = 16

// Config returns the design the constants were derived for. Critical
// values are read-only after construction, so one derivation can be shared
// across many monitors of the same design (see core.NewMonitorWithValues).
func (cv *CriticalValues) Config() hwblock.Config { return cv.cfg }

// RegMap returns the design's register map. Blocks built on it
// (RegMap.NewBlock) are recognized as the critical values' design by
// pointer, without a compare of the design.
func (cv *CriticalValues) RegMap() *hwblock.RegMap { return cv.regs }

// NewCriticalValues precomputes the constants for the given design at level
// of significance alpha (NIST recommends alpha in [0.001, 0.01]). This is
// the flexibility the HW/SW split buys: changing alpha regenerates these
// constants without touching the hardware.
func NewCriticalValues(cfg hwblock.Config, alpha float64, opts ...Option) (*CriticalValues, error) {
	if alpha <= 0 || alpha >= 0.5 {
		return nil, fmt.Errorf("sweval: alpha %g out of range", alpha)
	}
	for _, id := range cfg.Tests {
		switch id {
		case 1, 2, 3, 4, 7, 8, 11, 12, 13:
		default:
			return nil, fmt.Errorf("sweval: no software routine for test %d", id)
		}
	}
	regs, err := hwblock.NewRegMap(cfg)
	if err != nil {
		return nil, err
	}
	n := float64(cfg.N)
	cv := &CriticalValues{
		Alpha:      alpha,
		cfg:        regs.Config(),
		regs:       regs,
		banks:      regs.Banks(),
		runsMethod: RunsTable,
		pwl:        NewXLogXTable(),
	}
	for _, opt := range opts {
		opt(cv)
	}

	// z such that erfc(z/√2) = alpha, i.e. the two-sided normal bound.
	zq, err := specfunc.NormalQuantile(1 - alpha/2)
	if err != nil {
		return nil, err
	}

	// Test 1: |S|/√n > z·... s_obs = |S|/√n, P = erfc(s_obs/√2) < alpha
	// iff s_obs > zq, iff |S| > zq·√n.
	cv.monobitSMax = int64(math.Floor(zq * math.Sqrt(n)))

	if cfg.Has(2) {
		m := cfg.Params.BlockFrequencyM
		nBlocks := cfg.N / m
		crit, err := specfunc.ChiSquareQuantile(alpha, nBlocks)
		if err != nil {
			return nil, err
		}
		// D = Σ(2ε−M)² = M·χ².
		cv.blockFreqMax = int64(math.Floor(float64(m) * crit))
	}

	if cfg.Has(3) {
		cv.runsPreSAbs = int64(math.Ceil(4 * math.Sqrt(n)))
		// |n·V − 2·ones·zeros| > zq·2√(2n)·ones·zeros/n
		//                      = (runsKQ16/2^16)·ones·zeros.
		k := zq * 2 * math.Sqrt(2*n) / n
		cv.runsKQ16 = int64(math.Round(k * pwlScale))
		cv.runsRows = buildRunsTable(cfg.N, zq)
	}

	if cfg.Has(4) {
		m := cfg.Params.LongestRunM
		nBlocks := cfg.N / m
		lo, hi, err := nist.LongestRunClassBounds(m)
		if err != nil {
			return nil, err
		}
		probs, err := nist.LongestRunClassProbs(m, lo, hi)
		if err != nil {
			return nil, err
		}
		k := len(probs) - 1
		crit, err := specfunc.ChiSquareQuantile(alpha, k)
		if err != nil {
			return nil, err
		}
		cv.longestRunQ16 = make([]int64, len(probs))
		for i, p := range probs {
			cv.longestRunQ16[i] = int64(math.Round(pwlScale / (float64(nBlocks) * p)))
		}
		// χ² = Σν²/(Nπ) − N > crit  ⟺  Σν²·Q > (crit + N)·2^16.
		cv.longestRunMax = int64(math.Floor((crit + float64(nBlocks)) * pwlScale))
	}

	if cfg.Has(7) {
		m := cfg.Params.TemplateM
		nBlocks := cfg.Params.NonOverlappingN
		blockLen := cfg.N / nBlocks
		crit, err := specfunc.ChiSquareQuantile(alpha, nBlocks)
		if err != nil {
			return nil, err
		}
		sigma2 := float64(blockLen) * (1/math.Pow(2, float64(m)) -
			float64(2*m-1)/math.Pow(2, float64(2*m)))
		// D = Σ(2^m·W − (M−m+1))² = 2^2m·σ²·χ².
		cv.nonOvMax = int64(math.Floor(crit * sigma2 * math.Pow(2, float64(2*m))))
	}

	if cfg.Has(8) {
		m := cfg.Params.TemplateM
		blockLen := cfg.Params.OverlappingM
		nBlocks := cfg.N / blockLen
		k := nist.OverlappingTemplateK
		tpl := uint32(1<<uint(m)) - 1
		probs, err := nist.OverlappingTemplateClassProbs(tpl, m, blockLen, k)
		if err != nil {
			return nil, err
		}
		crit, err := specfunc.ChiSquareQuantile(alpha, k)
		if err != nil {
			return nil, err
		}
		cv.overlapQ16 = make([]int64, len(probs))
		for i, p := range probs {
			cv.overlapQ16[i] = int64(math.Round(pwlScale / (float64(nBlocks) * p)))
		}
		cv.overlapMax = int64(math.Floor((crit + float64(nBlocks)) * pwlScale))
	}

	if cfg.Has(11) {
		m := cfg.Params.SerialM
		// P1 = igamc(2^{m−2}, ∇/2) < alpha ⟺ ∇ > x where
		// igamc(2^{m−2}, x/2) = alpha, i.e. x = ChiSquareQuantile(alpha, 2^{m−1}).
		x1, err := specfunc.ChiSquareQuantile(alpha, 1<<uint(m-1))
		if err != nil {
			return nil, err
		}
		x2, err := specfunc.ChiSquareQuantile(alpha, 1<<uint(m-2))
		if err != nil {
			return nil, err
		}
		cv.serialMax1 = int64(math.Floor(n * x1))
		cv.serialMax2 = int64(math.Floor(n * x2))
	}

	if cfg.Has(12) {
		m := cfg.Params.SerialM - 1 // ApEn block length (test 12 reuses the serial counters)
		// P = igamc(2^{m−1}, χ²/2) < alpha ⟺ χ² > ChiSquareQuantile(alpha, 2^m).
		x, err := specfunc.ChiSquareQuantile(alpha, 1<<uint(m))
		if err != nil {
			return nil, err
		}
		// χ² = 2n(ln2 − ApEn) > x ⟺ ApEn < ln2 − x/(2n) — the exact
		// threshold. The PWL evaluation shifts the measured ApEn by a
		// systematic bias and adds quantization noise that, at large n,
		// dominates the statistic's own sampling variance; the embedded
		// threshold absorbs both with an offline-computed compensation
		// (see apenPWLCompensation). This refinement is necessary to
		// keep the PWL implementation's false-alarm rate near alpha —
		// the paper's "<3 % error" figure alone does not guarantee
		// decision equivalence. Documented in EXPERIMENTS.md.
		biasDiff, noise := apenPWLCompensation(cv.pwl, cfg.N, m)
		margin := x/(2*n) - biasDiff + 6*noise
		cv.apenMinQ16 = int64(math.Round((math.Ln2 - margin) * pwlScale))
	}

	// Test 13: smallest z with CusumPValue(z, N) < alpha.
	lo, hi := int64(1), int64(cfg.N)
	for lo < hi {
		mid := (lo + hi) / 2
		if nist.CusumPValue(int(mid), cfg.N) < alpha {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cv.cusumZMin = lo

	return cv, nil
}

// apenPWLCompensation computes, offline, the systematic shift and the noise
// the PWL evaluation adds to the ApEn statistic under H₀. For a pattern
// width w, the per-pattern frequency x = ν/n fluctuates around 2^−w with
// standard deviation ≈ √(2^−w(1−2^−w)/n); the chord of the convex x·ln(x)
// lies above the function, so each PWL term carries a positive error e(x).
// The routine integrates e against the frequency's normal density to get
// the expected bias and variance per term, then combines the φ_m and
// φ_{m+1} sums.
//
// Returns biasDiff = E[apen_pwl − apen_true] (≤ 0: the wider bank's bias
// dominates) and noise = the standard deviation of the PWL-induced error of
// the apen statistic.
func apenPWLCompensation(pwl *XLogXTable, n, m int) (biasDiff, noise float64) {
	termStats := func(w int) (mean, variance float64) {
		mu := math.Pow(2, -float64(w))
		sigma := math.Sqrt(mu * (1 - mu) / float64(n))
		// Simpson integration of e(x)·φ and e(x)²·φ over ±8σ.
		const steps = 400
		lo, hi := mu-8*sigma, mu+8*sigma
		if lo < 0 {
			lo = 0
		}
		h := (hi - lo) / steps
		var m1, m2 float64
		for i := 0; i <= steps; i++ {
			x := lo + float64(i)*h
			e := pwl.EvalFloat(x)
			if x > 0 {
				e -= x * math.Log(x)
			}
			z := (x - mu) / sigma
			dens := math.Exp(-z*z/2) / (sigma * math.Sqrt(2*math.Pi))
			wgt := 2.0
			if i%2 == 1 {
				wgt = 4
			}
			if i == 0 || i == steps {
				wgt = 1
			}
			m1 += wgt * e * dens
			m2 += wgt * e * e * dens
		}
		m1 *= h / 3
		m2 *= h / 3
		return m1, m2 - m1*m1
	}
	meanM, varM := termStats(m)       // φ_m bank: 2^m patterns
	meanM1, varM1 := termStats(m + 1) // φ_{m+1} bank: 2^{m+1} patterns
	biasM := math.Pow(2, float64(m)) * meanM
	biasM1 := math.Pow(2, float64(m+1)) * meanM1
	// apen = φ_m − φ_{m+1}: the banks' errors subtract. Treat terms as
	// independent for the guard band (conservative enough in practice).
	biasDiff = biasM - biasM1
	noise = math.Sqrt(math.Pow(2, float64(m))*varM + math.Pow(2, float64(m+1))*varM1)
	return biasDiff, noise
}

// buildRunsTable constructs the interval table for the RunsTable method:
// rows over |S_final| buckets from 0 to the precondition bound, each row
// holding the widest acceptance interval for the runs count over its
// bucket (conservative: interval-edge sequences are accepted, never
// spuriously rejected).
func buildRunsTable(n int, zq float64) []runsRow {
	nf := float64(n)
	preBound := 4 * math.Sqrt(nf)
	rows := make([]runsRow, 0, runsTableRows)
	for i := 1; i <= runsTableRows; i++ {
		sEdge := preBound * float64(i) / runsTableRows
		// Evaluate the acceptance interval at both bucket edges and keep
		// the union.
		var vLo, vHi float64 = math.Inf(1), math.Inf(-1)
		for _, s := range []float64{preBound * float64(i-1) / runsTableRows, sEdge} {
			ones := (nf + s) / 2
			zeros := nf - ones
			pi := ones / nf
			center := 2 * nf * pi * (1 - pi)
			half := zq * 2 * math.Sqrt(2*nf) * pi * (1 - pi)
			_ = zeros
			if center-half < vLo {
				vLo = center - half
			}
			if center+half > vHi {
				vHi = center + half
			}
		}
		rows = append(rows, runsRow{
			sAbsMax: int64(math.Ceil(sEdge)),
			vLo:     int64(math.Floor(vLo)),
			vHi:     int64(math.Ceil(vHi)),
		})
	}
	return rows
}
