package sweval

import (
	"fmt"
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

// TestEvaluateRejectsMissingRegister gives the evaluator critical values
// that expect one more longest-run counter than the block exposes: the
// pass must fail with an error naming the register, on every attempt.
func TestEvaluateRejectsMissingRegister(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Light)
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	wide := *cv
	wide.longestRunQ16 = append(cv.longestRunQ16[:len(cv.longestRunQ16):len(cv.longestRunQ16)], 0)
	b := runBlock(t, cfg, trng.Read(trng.NewIdeal(43), cfg.N))
	ev := NewEvaluator(&wide)
	for i := 0; i < 2; i++ {
		_, err := ev.Evaluate(b)
		if err == nil || !strings.Contains(err.Error(), "LR_NU_4") {
			t.Fatalf("attempt %d: err = %v, want a missing LR_NU_4 register", i, err)
		}
	}
	if _, err := NewEvaluator(cv).Evaluate(b); err != nil {
		t.Fatalf("matching critical values: %v", err)
	}
}

// TestEvaluateAllocs gates the per-sequence allocations of a pass on
// every shipped design: Evaluate allocates the Report and its Verdicts,
// nothing else, and EvaluateInto into a reused report allocates nothing
// and reports what Evaluate reports.
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
	}
}

// TestEvaluateIntoErrorLeavesReport fails a pass in each way it can fail
// (an incomplete block, critical values of another design, a missing
// register, a test with no software routine) into a report holding an
// earlier pass, which must come back untouched, down to its Verdicts'
// backing array.
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
	other := mustConfig(t, 128, hwblock.Light)
	cvOther, err := NewCriticalValues(other, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	missing := *cv
	missing.longestRunQ16 = append(cv.longestRunQ16[:len(cv.longestRunQ16):len(cv.longestRunQ16)], 0)
	unknown := cfg
	unknown.Tests = append(cfg.Tests[:len(cfg.Tests):len(cfg.Tests)], 5)
	cvUnknown := *cv
	cvUnknown.cfg = unknown
	unknownBlock, err := hwblock.New(unknown)
	if err != nil {
		t.Fatal(err)
	}
	if err := unknownBlock.Run(bitstream.NewReader(trng.Read(trng.NewIdeal(47), cfg.N))); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cv   *CriticalValues
		b    *hwblock.Block
		want string
	}{
		{"incomplete block", cv, partial, "only seen 1 of 128 bits"},
		{"other design", cvOther, done, "critical values are for design"},
		{"missing register", &missing, done, "LR_NU_"},
		{"no software routine", &cvUnknown, unknownBlock, "no software routine for test 5"},
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

// TestEvaluateRejectsSplitBank gives the evaluator critical values that
// expect one more longest-run counter than the block's bank holds, and
// adds that register at the end of the register file, away from its bank:
// the pass must fail with an error naming it, not read it on its own.
func TestEvaluateRejectsSplitBank(t *testing.T) {
	cfg := mustConfig(t, 128, hwblock.Medium)
	cv, err := NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	wide := *cv
	wide.longestRunQ16 = append(cv.longestRunQ16[:len(cv.longestRunQ16):len(cv.longestRunQ16)], 0)
	b := runBlock(t, cfg, trng.Read(trng.NewIdeal(45), cfg.N))
	name := fmt.Sprintf("LR_NU_%d", len(cv.longestRunQ16))
	b.RegFile().Add(name, 4, 8, func() uint64 { return 0 })
	_, err = NewEvaluator(&wide).Evaluate(b)
	if err == nil || !strings.Contains(err.Error(), name+`" does not follow`) {
		t.Fatalf("err = %v, want %s rejected as outside its bank", err, name)
	}
	if _, err := NewEvaluator(cv).Evaluate(b); err != nil {
		t.Fatalf("matching critical values: %v", err)
	}
}
