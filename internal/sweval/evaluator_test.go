package sweval

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/trng"
)

// TestEvaluatorRebinding alternates one evaluator between two blocks of
// the same design and checks every pass against a fresh evaluator's
// report on the same block.
func TestEvaluatorRebinding(t *testing.T) {
	for _, cfg := range hwblock.AllConfigs() {
		if cfg.N > 65536 {
			continue
		}
		cv, err := NewCriticalValues(cfg, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		blocks := []*hwblock.Block{
			runBlock(t, cfg, trng.Read(trng.NewIdeal(41), cfg.N)),
			runBlock(t, cfg, trng.Read(trng.NewBiased(0.6, 42), cfg.N)),
		}
		ev := NewEvaluator(cv)
		for i := 0; i < 4; i++ {
			b := blocks[i%2]
			got, err := ev.Evaluate(b)
			if err != nil {
				t.Fatalf("%s pass %d: %v", cfg.Name, i, err)
			}
			want, err := NewEvaluator(cv).Evaluate(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s pass %d: rebound evaluator's report differs from a fresh one's", cfg.Name, i)
			}
		}
		// A bound evaluator still checks that the block is done.
		blocks[0].Reset()
		if _, err := ev.Evaluate(blocks[0]); err == nil {
			t.Errorf("%s: evaluation of a reset block accepted", cfg.Name)
		}
	}
}

// mustCustom builds a custom design.
func mustCustom(t *testing.T, name string, n int, tests ...int) hwblock.Config {
	t.Helper()
	cfg, err := hwblock.NewCustomConfig(name, n, tests)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestEvaluateRejectsDesignMismatch evaluates blocks of designs that share
// the critical values' name but not their sequence length, tests or
// parameters: each pass must fail with an error naming the difference, on
// every attempt, rather than apply one design's constants to the other's
// counters. A block of the same design built on a map of its own is
// accepted.
func TestEvaluateRejectsDesignMismatch(t *testing.T) {
	cfg := mustCustom(t, "y", 1024, 1, 13)
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	xcfg := mustCustom(t, "x", 1024, 1, 13)
	xcv, err := NewCriticalValues(xcfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	params := mustCustom(t, "x", 1024, 1, 2, 3, 4, 11, 12, 13)
	otherParams := params
	otherParams.Params.BlockFrequencyM /= 2
	cvParams, err := NewCriticalValues(params, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cv    *CriticalValues
		block hwblock.Config
		want  string
	}{
		{"n=512", cv, mustCustom(t, "y", 512, 1, 13), "n = 1024, not 512"},
		{"n=2048", cv, mustCustom(t, "y", 2048, 1, 13), "n = 1024, not 2048"},
		{"n=4096", cv, mustCustom(t, "y", 4096, 1, 13), "n = 1024, not 4096"},
		{"more tests", xcv, mustCustom(t, "x", 1024, 1, 2, 3, 4, 11, 12, 13), "tests [1 13], not [1 2 3 4 11 12 13]"},
		{"other parameters", cvParams, otherParams, "parameters"},
	} {
		b := runBlock(t, c.block, trng.Read(trng.NewIdeal(45), c.block.N))
		ev := NewEvaluator(c.cv)
		for i := 0; i < 2; i++ {
			if _, err := ev.Evaluate(b); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s, attempt %d: err = %v, want one naming %q", c.name, i, err, c.want)
			}
		}
	}
	ev := NewEvaluator(cv)
	for i := 0; i < 2; i++ {
		if _, err := ev.Evaluate(runBlock(t, cfg, trng.Read(trng.NewIdeal(45), cfg.N))); err != nil {
			t.Fatalf("the critical values' design, attempt %d: %v", i, err)
		}
	}
}

// TestEvaluateRejectsMissingRegister gives the evaluator critical values
// that expect a longest-run bank and a block of a design under the same
// name whose register map has no LR_NU registers: the pass must fail with
// an error naming the difference, on every attempt, not read past the
// block's map.
func TestEvaluateRejectsMissingRegister(t *testing.T) {
	cfg := mustCustom(t, "z", 1024, 1, 4, 13)
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	short := mustCustom(t, "z", 1024, 1, 13)
	b := runBlock(t, short, trng.Read(trng.NewIdeal(43), short.N))
	if _, ok := cv.RegMap().Lookup("LR_NU_0"); !ok {
		t.Fatal("the critical values' map has no LR_NU_0 register")
	}
	if _, ok := b.RegMap().Lookup("LR_NU_0"); ok {
		t.Fatal("the block's map has an LR_NU_0 register")
	}
	ev := NewEvaluator(cv)
	for i := 0; i < 2; i++ {
		_, err := ev.Evaluate(b)
		if err == nil || !strings.Contains(err.Error(), "tests [1 4 13], not [1 13]") {
			t.Fatalf("attempt %d: err = %v, want the missing test 4 named", i, err)
		}
	}
	if _, err := ev.Evaluate(runBlock(t, cfg, trng.Read(trng.NewIdeal(43), cfg.N))); err != nil {
		t.Fatalf("matching design: %v", err)
	}
}

// TestEvaluateRejectsSplitBank gives the evaluator critical values whose
// longest-run bank is shorter than the block's, under the same name: the
// pass must fail naming the parameters rather than read a part of the
// block's bank. In both maps the LR_NU registers form one run of entries.
func TestEvaluateRejectsSplitBank(t *testing.T) {
	wide := mustCustom(t, "z", 1024, 1, 4)
	cfg := wide
	cfg.Params.LongestRunM = wide.Params.LongestRunM / 16
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b := runBlock(t, wide, trng.Read(trng.NewIdeal(45), wide.N))
	if got, want := b.RegMap().Banks().LongestRun.N, cv.RegMap().Banks().LongestRun.N; got <= want {
		t.Fatalf("block's longest-run bank holds %d counters, want more than %d", got, want)
	}
	for _, m := range []*hwblock.RegMap{cv.RegMap(), b.RegMap()} {
		bk := m.Banks().LongestRun
		for i, e := range m.Entries() {
			if strings.HasPrefix(e.Name, "LR_NU_") && (i < bk.First || i >= bk.First+bk.N) {
				t.Errorf("LongestRunM = %d: %s at entry %d lies outside its bank %+v", m.Config().Params.LongestRunM, e.Name, i, bk)
			}
		}
	}
	ev := NewEvaluator(cv)
	for i := 0; i < 2; i++ {
		if _, err := ev.Evaluate(b); err == nil || !strings.Contains(err.Error(), "parameters") {
			t.Fatalf("attempt %d: err = %v, want the parameters named", i, err)
		}
	}
	if _, err := ev.Evaluate(runBlock(t, cfg, trng.Read(trng.NewIdeal(45), cfg.N))); err != nil {
		t.Fatalf("matching design: %v", err)
	}
}

// TestEvaluatorSharesTheCriticalValuesMap checks that a block built on the
// critical values' map evaluates as a standalone block of the design does.
func TestEvaluatorSharesTheCriticalValuesMap(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Medium)
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	s := trng.Read(trng.NewBiased(0.6, 48), cfg.N)
	shared := cv.RegMap().NewBlock()
	if err := shared.Run(bitstream.NewReader(s)); err != nil {
		t.Fatal(err)
	}
	if shared.RegMap() != cv.RegMap() {
		t.Fatal("the block does not share the critical values' map")
	}
	got, err := NewEvaluator(cv).Evaluate(shared)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEvaluator(cv).Evaluate(runBlock(t, cfg, s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shared-map report %+v, standalone %+v", *got, *want)
	}
}

// TestCriticalValuesNeedSoftwareRoutine: a design with a test the software
// cannot evaluate gets no critical values.
func TestCriticalValuesNeedSoftwareRoutine(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Medium)
	cfg.Tests = append(cfg.Tests[:len(cfg.Tests):len(cfg.Tests)], 5)
	if _, err := NewCriticalValues(cfg, 0.01); err == nil || !strings.Contains(err.Error(), "no software routine for test 5") {
		t.Fatalf("err = %v, want no software routine for test 5", err)
	}
}

// TestEvaluateAllocs gates the per-sequence allocations of a pass on
// every shipped design: Evaluate allocates the Report and its Verdicts,
// nothing else, and EvaluateInto into a reused report allocates nothing
// and reports what Evaluate reports. EvaluateVerdicts into a reused
// report allocates nothing either.
func TestEvaluateAllocs(t *testing.T) {
	for _, cfg := range hwblock.AllConfigs() {
		b, err := hwblock.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(bitstream.NewReader(trng.Read(trng.NewBiased(0.6, 44), cfg.N))); err != nil {
			t.Fatal(err)
		}
		cv, err := NewCriticalValues(cfg, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(cv)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ev.Evaluate(b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: Evaluate makes %.0f allocations, want at most 2", cfg.Name, allocs)
		}
		var rep Report
		allocs = testing.AllocsPerRun(20, func() {
			if err := ev.EvaluateInto(b, &rep); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: EvaluateInto into a reused report makes %.0f allocations, want 0", cfg.Name, allocs)
		}
		want, err := ev.Evaluate(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&rep, want) {
			t.Errorf("%s: EvaluateInto reports %+v, Evaluate %+v", cfg.Name, rep, *want)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if err := ev.EvaluateVerdicts(b, &rep); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: EvaluateVerdicts into a reused report makes %.0f allocations, want 0", cfg.Name, allocs)
		}
	}
}

// TestEvaluateIntoErrorLeavesReport fails a pass in each way it can fail
// (an incomplete block, critical values of another design, of a design
// with the same name but another length, or other tests) into a report
// holding an earlier pass, which must come back untouched, down to its
// Verdicts' backing array.
func TestEvaluateIntoErrorLeavesReport(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Medium)
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	done := runBlock(t, cfg, trng.Read(trng.NewBiased(0.6, 46), cfg.N))
	var rep Report
	if err := NewEvaluator(cv).EvaluateInto(done, &rep); err != nil {
		t.Fatal(err)
	}
	kept := rep
	backing := append([]Verdict(nil), rep.Verdicts[:cap(rep.Verdicts)]...)

	partial, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.Clock(1); err != nil {
		t.Fatal(err)
	}
	cvFor := func(c hwblock.Config) *CriticalValues {
		cv, err := NewCriticalValues(c, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}
	longer := mustCustom(t, cfg.Name, 256, cfg.Tests...)
	fewer := mustCustom(t, cfg.Name, 128, 1, 2, 3, 4, 13)
	for _, c := range []struct {
		name string
		cv   *CriticalValues
		b    *hwblock.Block
		want string
	}{
		{"incomplete block", cv, partial, "only seen 1 of 128 bits"},
		{"other design", cvFor(mustConfig(t, 128, hwblock.Light)), done, "critical values are for design"},
		{"same name, other length", cvFor(longer), done, "n = 256, not 128"},
		{"same name, other tests", cvFor(fewer), done, "tests [1 2 3 4 13], not [1 2 3 4 11 12 13]"},
	} {
		err := NewEvaluator(c.cv).EvaluateInto(c.b, &rep)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if !reflect.DeepEqual(rep, kept) || &rep.Verdicts[:1][0] != &kept.Verdicts[:1][0] ||
			!reflect.DeepEqual(rep.Verdicts[:cap(rep.Verdicts)], backing) {
			t.Fatalf("%s: the failed pass wrote the report", c.name)
		}
	}
}
