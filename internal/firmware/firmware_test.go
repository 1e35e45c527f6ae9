package firmware

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/sweval"
	"repro/internal/trng"
)

func setup(t *testing.T, n int, v hwblock.Variant, src trng.Source) (*hwblock.Block, *sweval.CriticalValues) {
	t.Helper()
	cfg, err := hwblock.NewConfig(n, v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := trng.Read(src, cfg.N)
	if err := b.Run(bitstream.NewReader(s)); err != nil {
		t.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return b, cv
}

func TestFirmwarePassesIdealSource(t *testing.T) {
	b, cv := setup(t, 65536, hwblock.Light, trng.NewIdeal(1))
	res, src, err := Run(b, cv)
	if err != nil {
		t.Fatalf("%v\nsource:\n%s", err, src)
	}
	if !res.Pass() {
		t.Errorf("ideal source failed with bitmap %#06b", res.FailBitmap)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Error("no cycles counted")
	}
	t.Logf("evaluation latency: %d cycles, %d instructions", res.Cycles, res.Instructions)
}

func TestFirmwareDetectsStuckSource(t *testing.T) {
	b, cv := setup(t, 65536, hwblock.Light, trng.NewStuckAt(1))
	res, _, err := Run(b, cv)
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []uint16{FailMonobit, FailRuns, FailCusum} {
		if res.FailBitmap&bit == 0 {
			t.Errorf("stuck source: bit %#x not set (bitmap %#06b)", bit, res.FailBitmap)
		}
	}
}

func TestFirmwareDetectsBias(t *testing.T) {
	b, cv := setup(t, 65536, hwblock.Light, trng.NewBiased(0.55, 2))
	res, _, err := Run(b, cv)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailBitmap&FailMonobit == 0 {
		t.Errorf("biased source: monobit bit not set (bitmap %#06b)", res.FailBitmap)
	}
}

// TestFirmwareMatchesCostModelEvaluator is the cross-validation between the
// two software implementations: the cycle-accurate firmware and the
// instruction-cost-model evaluator must produce the same verdict for the
// five light tests on the same hardware counters.
func TestFirmwareMatchesCostModelEvaluator(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var src trng.Source
		switch seed % 4 {
		case 0:
			src = trng.NewIdeal(seed)
		case 1:
			src = trng.NewBiased(0.5+0.005*float64(seed%8), seed)
		case 2:
			src = trng.NewMarkov(0.5+0.01*float64(seed%10), seed)
		default:
			src = trng.NewRingOscillator(100.37, 0.4, seed)
		}
		b, cv := setup(t, 65536, hwblock.Light, src)
		res, asmSrc, err := Run(b, cv)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := sweval.NewEvaluator(cv).Evaluate(b)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]uint16{1: FailMonobit, 2: FailBlockFreq, 3: FailRuns, 4: FailLongestRun, 13: FailCusum}
		for _, v := range rep.Verdicts {
			bit := want[v.TestID]
			fwFailed := res.FailBitmap&bit != 0
			if fwFailed == v.Pass { // mismatch: firmware failed XOR evaluator passed
				t.Errorf("seed %d test %d: firmware failed=%v, evaluator pass=%v\n%s",
					seed, v.TestID, fwFailed, v.Pass, asmSrc)
			}
		}
	}
}

func TestFirmwareSmallDesign(t *testing.T) {
	b, cv := setup(t, 128, hwblock.Light, trng.NewIdeal(3))
	res, src, err := Run(b, cv)
	if err != nil {
		t.Fatalf("%v\nsource:\n%s", err, src)
	}
	rep, err := sweval.NewEvaluator(cv).Evaluate(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass() != rep.Pass() {
		t.Errorf("n=128: firmware pass=%v, evaluator pass=%v (bitmap %#06b, failed %v)",
			res.Pass(), rep.Pass(), res.FailBitmap, rep.Failed())
	}
}

func TestFirmwareLargestDesign(t *testing.T) {
	// The 2^20 design exercises the 48-bit accumulator path of the
	// block-frequency routine. The firmware verdict must agree with the
	// cost-model evaluator on healthy and defective counters.
	for seed := int64(0); seed < 4; seed++ {
		var src trng.Source = trng.NewIdeal(seed)
		if seed%2 == 1 {
			src = trng.NewBiased(0.502+0.002*float64(seed), seed)
		}
		b, cv := setup(t, 1<<20, hwblock.Light, src)
		res, asmSrc, err := Run(b, cv)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, asmSrc)
		}
		rep, err := sweval.NewEvaluator(cv).Evaluate(b)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]uint16{1: FailMonobit, 2: FailBlockFreq, 3: FailRuns, 4: FailLongestRun, 13: FailCusum}
		for _, v := range rep.Verdicts {
			bit := want[v.TestID]
			fwFailed := res.FailBitmap&bit != 0
			if fwFailed == v.Pass {
				t.Errorf("seed %d test %d: firmware failed=%v, evaluator pass=%v",
					seed, v.TestID, fwFailed, v.Pass)
			}
		}
	}
}

func TestFirmwareLargestDesignBlockFreqEdge(t *testing.T) {
	// All-zeros input drives every ε to 0: |2ε − M| = 2^16 exactly in
	// every block — the dL = 0, dH = 1 corner of the 48-bit square.
	b, cv := setup(t, 1<<20, hwblock.Light, trng.NewStuckAt(0))
	res, _, err := Run(b, cv)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailBitmap&FailBlockFreq == 0 {
		t.Errorf("block-frequency did not fail on all-zeros (bitmap %#06b)", res.FailBitmap)
	}
	rep, err := sweval.NewEvaluator(cv).Evaluate(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Verdicts {
		if v.TestID == 2 && v.Pass {
			t.Error("evaluator disagrees: test 2 passed all-zeros")
		}
	}
}

func TestFirmwareLatencyIsStable(t *testing.T) {
	// The routine's latency must not depend on the data (modulo the few
	// branch directions): two ideal sequences should be within a handful
	// of cycles of each other, and well inside the paper's magnitude
	// (thousands of cycles, vs 21 cycles for the all-hardware design of
	// [13] — Table IV).
	b1, cv := setup(t, 65536, hwblock.Light, trng.NewIdeal(10))
	r1, _, err := Run(b1, cv)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := setup(t, 65536, hwblock.Light, trng.NewIdeal(11))
	r2, _, err := Run(b2, cv)
	if err != nil {
		t.Fatal(err)
	}
	diff := r1.Cycles - r2.Cycles
	if diff < 0 {
		diff = -diff
	}
	if diff > 200 {
		t.Errorf("latency varies too much: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
	if r1.Cycles < 100 || r1.Cycles > 20000 {
		t.Errorf("latency %d cycles outside plausible band", r1.Cycles)
	}
}

func TestGenerateEmitsTables(t *testing.T) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(b.RegMap(), cv)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rtab:", "qtab:", "abs32:", "maxu32:", "CPUOFF"} {
		if !contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
