package sweval

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/nist"
	"repro/internal/trng"
)

func mustConfig(t *testing.T, n int, v hwblock.Variant) hwblock.Config {
	t.Helper()
	cfg, err := hwblock.NewConfig(n, v)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runBlock(t *testing.T, cfg hwblock.Config, s *bitstream.Sequence) *hwblock.Block {
	t.Helper()
	b, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(bitstream.NewReader(s)); err != nil {
		t.Fatal(err)
	}
	return b
}

func evaluate(t *testing.T, cfg hwblock.Config, s *bitstream.Sequence, alpha float64, opts ...Option) *Report {
	t.Helper()
	cv, err := NewCriticalValues(cfg, alpha, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewEvaluator(cv).Evaluate(runBlock(t, cfg, s))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// referenceDecision runs the reference suite test matching id on s with the
// platform parameters and returns (pass, minP).
func referenceDecision(t *testing.T, id int, s *bitstream.Sequence, p nist.Params, alpha float64) (bool, float64) {
	t.Helper()
	var r *nist.Result
	var err error
	switch id {
	case 1:
		r, err = nist.Frequency(s)
	case 2:
		r, err = nist.BlockFrequency(s, p.BlockFrequencyM)
	case 3:
		r, err = nist.Runs(s)
	case 4:
		r, err = nist.LongestRunOfOnes(s, p.LongestRunM)
	case 7:
		r, err = nist.NonOverlappingTemplate(s, p.TemplateB, p.TemplateM, p.NonOverlappingN)
	case 8:
		r, err = nist.OverlappingTemplate(s, p.TemplateM, p.OverlappingM)
	case 11:
		r, err = nist.Serial(s, p.SerialM)
	case 12:
		r, err = nist.ApproximateEntropy(s, p.SerialM-1)
	case 13:
		r, err = nist.CumulativeSums(s)
	default:
		t.Fatalf("no reference for test %d", id)
	}
	if err != nil {
		t.Fatalf("reference test %d: %v", id, err)
	}
	return r.Pass(alpha), r.MinP()
}

// TestDecisionEquivalence is the central validation of the paper's split:
// for random sequences, the decision produced from the hardware counters by
// the integer software routine equals the reference suite's decision at the
// same alpha — except within a narrow band around the critical value, where
// fixed-point quantization may legitimately differ (and for test 12, whose
// PWL approximation is only compared away from the boundary).
func TestDecisionEquivalence(t *testing.T) {
	const alpha = 0.01
	cfg := mustConfig(t, 65536, hwblock.High)
	mismatches := 0
	for seed := int64(0); seed < 12; seed++ {
		s := trng.Read(trng.NewIdeal(seed), cfg.N)
		rep := evaluate(t, cfg, s, alpha, WithRunsMethod(RunsExact))
		for _, v := range rep.Verdicts {
			refPass, minP := referenceDecision(t, v.TestID, s, cfg.Params, alpha)
			nearBoundary := minP > alpha/2 && minP < alpha*2
			if v.TestID == 12 && minP > alpha/5 && minP < 0.2 {
				// PWL tolerance band for the approximate entropy test.
				continue
			}
			if v.Pass != refPass && !nearBoundary {
				t.Errorf("seed %d test %d: embedded=%v reference=%v (minP=%.4g)",
					seed, v.TestID, v.Pass, refPass, minP)
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		t.Logf("%d decision mismatches", mismatches)
	}
}

func TestDecisionEquivalenceSmallDesign(t *testing.T) {
	const alpha = 0.01
	cfg := mustConfig(t, 128, hwblock.Medium)
	for seed := int64(100); seed < 140; seed++ {
		s := trng.Read(trng.NewIdeal(seed), cfg.N)
		rep := evaluate(t, cfg, s, alpha, WithRunsMethod(RunsExact))
		for _, v := range rep.Verdicts {
			refPass, minP := referenceDecision(t, v.TestID, s, cfg.Params, alpha)
			nearBoundary := minP > alpha/2 && minP < alpha*2
			if v.TestID == 12 {
				// At n=128 the pattern frequencies are coarse; allow the
				// PWL band to be wider.
				if minP > alpha/10 && minP < 0.5 {
					continue
				}
			}
			if v.Pass != refPass && !nearBoundary {
				t.Errorf("seed %d test %d: embedded=%v reference=%v (minP=%.4g)",
					seed, v.TestID, v.Pass, refPass, minP)
			}
		}
	}
}

func TestIdealSourcePassesAllVariants(t *testing.T) {
	// At alpha = 0.001 a single ideal sequence should essentially always
	// pass every implemented test.
	for _, cfg := range hwblock.AllConfigs() {
		if cfg.N > 65536 && testing.Short() {
			continue
		}
		s := trng.Read(trng.NewIdeal(7), cfg.N)
		rep := evaluate(t, cfg, s, 0.001)
		if !rep.Pass() {
			t.Errorf("%s: ideal source failed tests %v", cfg.Name, rep.Failed())
		}
	}
}

func TestStuckSourceFailsEverythingQuickly(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Light)
	s := trng.Read(trng.NewStuckAt(1), cfg.N)
	rep := evaluate(t, cfg, s, 0.01)
	// Total failure: tests 1, 3, 13 must reject (2 and 4 also see maximal
	// defect).
	for _, want := range []int{1, 3, 13} {
		found := false
		for _, id := range rep.Failed() {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("stuck source: test %d did not fail (failed: %v)", want, rep.Failed())
		}
	}
}

func TestBiasedSourceFailsMonobit(t *testing.T) {
	cfg := mustConfig(t, 65536, hwblock.Light)
	s := trng.Read(trng.NewBiased(0.53, 3), cfg.N)
	rep := evaluate(t, cfg, s, 0.01)
	if rep.Pass() {
		t.Error("3% bias escaped the light variant at n=65536")
	}
}

func TestMarkovSourceFailsRunsAndSerial(t *testing.T) {
	cfg := mustConfig(t, 65536, hwblock.High)
	s := trng.Read(trng.NewMarkov(0.6, 4), cfg.N)
	rep := evaluate(t, cfg, s, 0.01)
	failed := map[int]bool{}
	for _, id := range rep.Failed() {
		failed[id] = true
	}
	if !failed[3] {
		t.Error("runs test passed a sticky Markov source")
	}
	if !failed[11] {
		t.Error("serial test passed a sticky Markov source")
	}
}

func TestLockedOscillatorDetected(t *testing.T) {
	cfg := mustConfig(t, 65536, hwblock.High)
	ro := trng.NewRingOscillator(100.37, 0.5, 5)
	ro.Lock(0.001)
	s := trng.Read(ro, cfg.N)
	rep := evaluate(t, cfg, s, 0.01)
	if rep.Pass() {
		t.Error("frequency-injection lock escaped the high variant")
	}
}

func TestRunsTableAgreesWithExactAwayFromEdges(t *testing.T) {
	cfg := mustConfig(t, 65536, hwblock.Light)
	disagreements := 0
	for seed := int64(0); seed < 30; seed++ {
		s := trng.Read(trng.NewIdeal(seed), cfg.N)
		b := runBlock(t, cfg, s)
		cvE, err := NewCriticalValues(cfg, 0.01, WithRunsMethod(RunsExact))
		if err != nil {
			t.Fatal(err)
		}
		cvT, err := NewCriticalValues(cfg, 0.01, WithRunsMethod(RunsTable))
		if err != nil {
			t.Fatal(err)
		}
		repE, err := NewEvaluator(cvE).Evaluate(b)
		if err != nil {
			t.Fatal(err)
		}
		repT, err := NewEvaluator(cvT).Evaluate(b)
		if err != nil {
			t.Fatal(err)
		}
		var passE, passT bool
		for _, v := range repE.Verdicts {
			if v.TestID == 3 {
				passE = v.Pass
			}
		}
		for _, v := range repT.Verdicts {
			if v.TestID == 3 {
				passT = v.Pass
			}
		}
		if passE != passT {
			disagreements++
		}
	}
	if disagreements > 3 {
		t.Errorf("table and exact runs methods disagreed on %d/30 ideal sequences", disagreements)
	}
}

func TestRunsTableStillCatchesDefects(t *testing.T) {
	cfg := mustConfig(t, 65536, hwblock.Light)
	s := trng.Read(trng.NewMarkov(0.6, 9), cfg.N)
	rep := evaluate(t, cfg, s, 0.01, WithRunsMethod(RunsTable))
	failed := false
	for _, v := range rep.Verdicts {
		if v.TestID == 3 && !v.Pass {
			failed = true
		}
	}
	if !failed {
		t.Error("table-method runs test passed a sticky Markov source")
	}
}

func TestPWLErrorBelowThreePercent(t *testing.T) {
	// The paper's Fig. 3 claim: the 32-segment PWL approximation of
	// x·log(x) is "almost indistinguishable" with < 3 % error. The
	// relative error is measured over the plotted working range (away
	// from the zero crossing at x→0 where relative error is undefined).
	tbl := NewXLogXTable()
	if rel := tbl.MaxRelativeError(1.0/32, 10000); rel >= 0.03 {
		t.Errorf("max relative error %.4f, want < 0.03", rel)
	}
	if abs := tbl.MaxAbsoluteError(10000); abs >= 0.013 {
		t.Errorf("max absolute error %.4f unexpectedly large", abs)
	}
}

func TestPWLExactAtSegmentBoundaries(t *testing.T) {
	tbl := NewXLogXTable()
	for i := 1; i <= PWLSegments; i++ {
		x := float64(i) / PWLSegments
		want := x * math.Log(x)
		if got := tbl.EvalFloat(x); math.Abs(got-want) > 2.0/pwlScale*2 {
			t.Errorf("PWL(%g) = %.6f, want %.6f (boundary should be exact up to Q16 rounding)", x, got, want)
		}
	}
}

func TestPWLSeriesShape(t *testing.T) {
	tbl := NewXLogXTable()
	xs, approx, exact := tbl.Series(100)
	if len(xs) != 101 || len(approx) != 101 || len(exact) != 101 {
		t.Fatal("series lengths wrong")
	}
	// x·ln(x) has its minimum at x = 1/e ≈ 0.368, value −1/e ≈ −0.368.
	minIdx := 0
	for i, v := range approx {
		if v < approx[minIdx] {
			minIdx = i
		}
	}
	if math.Abs(xs[minIdx]-1/math.E) > 0.05 {
		t.Errorf("PWL minimum at x=%.3f, want ≈ 0.368", xs[minIdx])
	}
}

func TestApEnLUTCountMatchesPaper(t *testing.T) {
	// Table III reports LUT = 24 exactly for every design containing the
	// approximate-entropy test: 8 (3-bit) + 16 (4-bit) PWL evaluations.
	cfg := mustConfig(t, 128, hwblock.Medium)
	s := trng.Read(trng.NewIdeal(11), cfg.N)
	rep := evaluate(t, cfg, s, 0.01)
	if got := rep.TestCost(12).Get(OpLUT); got != 24 {
		t.Errorf("ApEn LUT accesses = %d, want 24 (paper Table III)", got)
	}
	// Designs without test 12 must not touch the LUT.
	cfgL := mustConfig(t, 128, hwblock.Light)
	repL := evaluate(t, cfgL, trng.Read(trng.NewIdeal(11), cfgL.N), 0.01)
	if got := repL.Cost.Get(OpLUT); got != 0 {
		t.Errorf("light design used %d LUT accesses, want 0", got)
	}
}

func TestReadCountEqualsRegisterWords(t *testing.T) {
	// Every exposed word is read once per evaluation pass (the READ row
	// of Table III counts bus transactions) — except the serial pattern
	// counters of widths m and m−1, which both the serial and the
	// approximate-entropy routines read (the shared-counter trick shares
	// hardware, not bus transactions).
	for _, cfg := range hwblock.AllConfigs() {
		if cfg.N > 65536 {
			continue
		}
		s := trng.Read(trng.NewIdeal(13), cfg.N)
		b := runBlock(t, cfg, s)
		rep := evaluate(t, cfg, s, 0.01)
		// The GLOBAL_BITS entry is infrastructure the routine never reads.
		g, _ := b.RegMap().Lookup("GLOBAL_BITS")
		want := b.RegFile().Words() - g.Words
		if cfg.Has(11) && cfg.Has(12) {
			sm := cfg.Params.SerialM
			for _, e := range b.RegMap().EntriesForTest(11) {
				var w int
				if _, err := fmt.Sscanf(e.Name, "SERIAL_NU%d_", &w); err == nil && (w == sm || w == sm-1) {
					want += e.Words
				}
			}
		}
		if got := rep.Cost.Get(OpRead); got != want {
			t.Errorf("%s: READ = %d, want %d", cfg.Name, got, want)
		}
	}
}

func TestCostGrowsWithVariant(t *testing.T) {
	var prev int
	for _, v := range []hwblock.Variant{hwblock.Light, hwblock.Medium, hwblock.High} {
		cfg := mustConfig(t, 65536, v)
		s := trng.Read(trng.NewIdeal(17), cfg.N)
		rep := evaluate(t, cfg, s, 0.01)
		total := rep.Cost.Total()
		if total <= prev {
			t.Errorf("%s: total cost %d not larger than previous variant (%d)", cfg.Name, total, prev)
		}
		prev = total
	}
}

func TestAlphaFlexibility(t *testing.T) {
	// The same hardware counters evaluated at a stricter alpha must be at
	// least as likely to pass; verify thresholds move the right way.
	cfg := mustConfig(t, 65536, hwblock.Light)
	cvLoose, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cvStrict, err := NewCriticalValues(cfg, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if cvStrict.monobitSMax <= cvLoose.monobitSMax {
		t.Error("monobit bound did not widen at smaller alpha")
	}
	if cvStrict.blockFreqMax <= cvLoose.blockFreqMax {
		t.Error("block-frequency bound did not widen at smaller alpha")
	}
	if cvStrict.cusumZMin <= cvLoose.cusumZMin {
		t.Error("cusum bound did not widen at smaller alpha")
	}
}

func TestAlphaValidation(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Light)
	for _, a := range []float64{0, -0.1, 0.5, 1} {
		if _, err := NewCriticalValues(cfg, a); err == nil {
			t.Errorf("alpha %g accepted", a)
		}
	}
}

func TestEvaluateRejectsIncompleteBlock(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Light)
	b, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Clock(1) // only one bit
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(cv).Evaluate(b); err == nil {
		t.Error("evaluation of an incomplete sequence accepted")
	}
}

func TestEvaluateRejectsMismatchedDesign(t *testing.T) {
	cfgA := mustConfig(t, 128, hwblock.Light)
	cfgB := mustConfig(t, 65536, hwblock.Light)
	cv, err := NewCriticalValues(cfgB, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	s := trng.Read(trng.NewIdeal(19), cfgA.N)
	b := runBlock(t, cfgA, s)
	if _, err := NewEvaluator(cv).Evaluate(b); err == nil {
		t.Error("mismatched design accepted")
	}
}

func TestCostStringAndOps(t *testing.T) {
	var c Cost
	c[OpAdd] = 3
	c[OpRead] = 2
	s := c.String()
	if s == "" || c.Total() != 5 {
		t.Errorf("cost bookkeeping wrong: %q total=%d", s, c.Total())
	}
	for op := OpAdd; op < numOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty label", op)
		}
	}
}

func TestMeterDecomposesWideOperations(t *testing.T) {
	m := &meter{}
	// A 32-bit value needs 2 limbs: adding two of them costs 2 ADDs.
	m.add(1<<30, 1<<30)
	if m.cost[OpAdd] != 2 {
		t.Errorf("32-bit add cost %d ADD, want 2", m.cost[OpAdd])
	}
	m = &meter{}
	// Squaring a 2-limb value: 2 SQR + 1 MUL (cross term) + 1 ADD.
	m.sqr(1 << 20)
	if m.cost[OpSqr] != 2 || m.cost[OpMul] != 1 {
		t.Errorf("2-limb square cost SQR=%d MUL=%d, want 2/1", m.cost[OpSqr], m.cost[OpMul])
	}
	m = &meter{}
	m.mul(3, 5) // single-limb multiply
	if m.cost[OpMul] != 1 || m.cost[OpAdd] != 0 {
		t.Errorf("1-limb mul cost MUL=%d ADD=%d, want 1/0", m.cost[OpMul], m.cost[OpAdd])
	}
}

// TestMeterWordsMatchesDivide checks the shift-based limb count against
// ⌈max(bits(v), 1) / wordBits⌉ at both ends of every bit width, at every
// word size, and for the magnitude abs64 gives math.MinInt64.
func TestMeterWordsMatchesDivide(t *testing.T) {
	for _, wb := range []int{WordSize16, WordSize32, WordSize64} {
		m := meter{wide: wideShift(wb)}
		for width := 0; width <= 64; width++ {
			vs := []uint64{0}
			if width > 0 {
				lo := uint64(1) << uint(width-1)
				vs = []uint64{lo, lo | (lo - 1)}
			}
			want := (max(width, 1) + wb - 1) / wb
			for _, v := range vs {
				if got := m.words(v); got != want {
					t.Errorf("word size %d: words(%#x) = %d, want %d", wb, v, got, want)
				}
			}
		}
		if got, want := m.words(abs64(math.MinInt64)), 64/wb; got != want {
			t.Errorf("word size %d: words(|MinInt64|) = %d, want %d", wb, got, want)
		}
	}
}

func TestPerTestCostsSumToTotal(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Medium)
	s := trng.Read(trng.NewIdeal(23), cfg.N)
	rep := evaluate(t, cfg, s, 0.01)
	var sum Cost
	for _, v := range rep.Verdicts {
		sum.Add(v.Cost)
	}
	if sum != rep.Cost {
		t.Errorf("per-test costs %v do not sum to total %v", sum, rep.Cost)
	}
}

// TestFalseAlarmCalibration checks that no embedded threshold is
// systematically leaky: over 400 ideal sequences at alpha = 0.01, each
// test's failure count must stay within a generous binomial band around
// 400·alpha = 4 (discreteness at n = 128 makes true rates conservative,
// so only the upper bound is asserted).
func TestFalseAlarmCalibration(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Medium)
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(cv)
	fails := map[int]int{}
	const trials = 400
	for seed := int64(0); seed < trials; seed++ {
		b := runBlock(t, cfg, trng.Read(trng.NewIdeal(seed+9000), cfg.N))
		rep, err := ev.Evaluate(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range rep.Failed() {
			fails[id]++
		}
	}
	t.Logf("per-test failures over %d ideal sequences: %v", trials, fails)
	for id, count := range fails {
		// Binomial(400, 0.01): mean 4, sd 2; 16 is an 6-sigma bound.
		if count > 16 {
			t.Errorf("test %d failed %d of %d ideal sequences — threshold leaks", id, count, trials)
		}
	}
}
