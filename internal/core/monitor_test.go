package core

import (
	"reflect"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/sweval"
	"repro/internal/trng"
)

func newMonitor(t *testing.T, n int, v hwblock.Variant, alpha float64) *Monitor {
	t.Helper()
	cfg, err := hwblock.NewConfig(n, v)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(cfg, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonitorPassesIdealSource(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Light, 0.001)
	reps, err := m.Watch(trng.NewIdeal(1), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 20 {
		t.Fatalf("got %d reports, want 20", len(reps))
	}
	failures := 0
	for _, r := range reps {
		if !r.Report.Pass() {
			failures++
		}
	}
	// At alpha = 0.001 over 20 sequences × 5 tests, even one failure is
	// unusual but possible; two or more indicate a bug.
	if failures > 1 {
		t.Errorf("%d of 20 ideal sequences failed at alpha=0.001", failures)
	}
}

func TestMonitorSequenceBookkeeping(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Light, 0.01)
	reps, err := m.Watch(trng.NewIdeal(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		if r.Index != i {
			t.Errorf("report %d has index %d", i, r.Index)
		}
		if r.StartBit != int64(i*128) {
			t.Errorf("report %d starts at bit %d, want %d", i, r.StartBit, i*128)
		}
	}
	if m.BitsSeen() != 3*128 {
		t.Errorf("BitsSeen = %d, want %d", m.BitsSeen(), 3*128)
	}
	if len(m.History()) != 3 {
		t.Errorf("history has %d entries", len(m.History()))
	}
}

func TestMonitorHistoryBound(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Light, 0.01)
	m.KeepHistory = 2
	if _, err := m.Watch(trng.NewIdeal(3), 5); err != nil {
		t.Fatal(err)
	}
	if len(m.History()) != 2 {
		t.Errorf("history has %d entries, want 2", len(m.History()))
	}
	if m.History()[1].Index != 4 {
		t.Errorf("newest history entry is %d, want 4", m.History()[1].Index)
	}
}

func TestMonitorFeedReturnsNilMidSequence(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Light, 0.01)
	for i := 0; i < 127; i++ {
		rep, err := m.Feed(1)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			t.Fatalf("report produced after only %d bits", i+1)
		}
	}
	rep, err := m.Feed(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no report after full sequence")
	}
	if rep.Report.Pass() {
		t.Error("all-ones sequence passed")
	}
}

func TestMonitorDetectsOnsetAttack(t *testing.T) {
	// Healthy ring oscillator for 3 sequences, then frequency-injection
	// lock. The monitor must flag within a few sequences of the onset.
	cfg, err := hwblock.NewConfig(128, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	onset := int64(3 * 128)
	healthy := trng.NewRingOscillator(100.37, 1.0, 4)
	locked := trng.NewRingOscillator(100.37, 0.0005, 5)
	src := trng.NewSwitchAt(healthy, locked, int(onset))

	res, err := m.DetectionLatency(src, onset, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("locked oscillator never detected")
	}
	if res.LatencyBits > 20*128 {
		t.Errorf("detection took %d bits (%d sequences)", res.LatencyBits, res.LatencyBits/128)
	}
	if len(res.FailedTests) == 0 {
		t.Error("no failed tests recorded")
	}
}

func TestMonitorStuckDetectionIsImmediate(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Light, 0.01)
	res, err := m.DetectionLatency(trng.NewStuckAt(0), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || res.SequenceIndex != 0 {
		t.Errorf("stuck source not detected in the first sequence: %+v", res)
	}
	if res.LatencyBits != 128 {
		t.Errorf("latency = %d bits, want 128 (one sequence)", res.LatencyBits)
	}
}

func TestMonitorSetAlpha(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Light, 0.01)
	if m.Alpha() != 0.01 {
		t.Fatalf("Alpha = %g", m.Alpha())
	}
	if err := m.SetAlpha(0.001); err != nil {
		t.Fatal(err)
	}
	if m.Alpha() != 0.001 {
		t.Errorf("Alpha after SetAlpha = %g", m.Alpha())
	}
	if err := m.SetAlpha(0); err == nil {
		t.Error("invalid alpha accepted")
	}
	// The monitor must keep working after the change.
	if _, err := m.Watch(trng.NewIdeal(6), 1); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorSetAlphaThenEvaluate swaps the critical values after the
// monitor's evaluator has bound to its block: the next sequences must be
// judged at the new alpha, exactly as a fresh block and evaluator judge
// the same bits, unmetered and metered in turn.
func TestMonitorSetAlphaThenEvaluate(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Medium, 0.01)
	cfg := m.Config()
	src := trng.NewBiased(0.56, 8)
	if _, err := m.Watch(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.SetAlpha(0.001); err != nil {
		t.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.Metered = i%2 == 1
		seq := trng.Read(src, cfg.N)
		var got *SequenceReport
		for j := 0; j < seq.Len(); j++ {
			if got, err = m.Feed(seq.Bit(j)); err != nil {
				t.Fatal(err)
			}
		}
		if got == nil {
			t.Fatalf("sequence %d: no report at the boundary", i)
		}
		b, err := hwblock.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(bitstream.NewReader(seq)); err != nil {
			t.Fatal(err)
		}
		want, ev := new(sweval.Report), sweval.NewEvaluator(cv)
		if m.Metered {
			err = ev.EvaluateInto(b, want)
		} else {
			err = ev.EvaluateVerdicts(b, want)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Report, want) {
			t.Errorf("sequence %d after SetAlpha: report %+v, want %+v", i, got.Report.Verdicts, want.Verdicts)
		}
	}
}

func TestMonitorWithCustomConfig(t *testing.T) {
	// The future-work extension: a 4096-bit sequence with a custom test
	// subset.
	cfg, err := hwblock.NewCustomConfig("custom-4096", 4096, []int{1, 2, 3, 13})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := m.Watch(trng.NewIdeal(7), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d reports", len(reps))
	}
	res, err := m.DetectionLatency(trng.NewBiased(0.8, 8), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Error("custom config failed to detect heavy bias")
	}
}

func TestCustomConfigValidation(t *testing.T) {
	if _, err := hwblock.NewCustomConfig("bad", 1000, []int{1}); err == nil {
		t.Error("non-power-of-two length accepted")
	}
	if _, err := hwblock.NewCustomConfig("bad", 4096, []int{5}); err == nil {
		t.Error("HW-unsuitable test accepted")
	}
}

func TestMonitorRunsTableOption(t *testing.T) {
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(cfg, 0.01, sweval.WithRunsMethod(sweval.RunsExact))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch(trng.NewIdeal(9), 1); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorSoak runs the platform the way a deployment would: fifty
// 65536-bit sequences from a healthy oscillator through the medium design
// with AIS-31 retest semantics. The failure alarm must never latch and the
// noise-alarm count must stay near alpha x tests x sequences.
func TestMonitorSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg, err := hwblock.NewConfig(65536, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(cfg, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	m.KeepHistory = 10
	policy, err := NewAlarmPolicy(2)
	if err != nil {
		t.Fatal(err)
	}
	src := trng.NewRingOscillator(100.37, 1.0, 31)
	for seq := 0; seq < 50; seq++ {
		reps, err := m.Watch(src, 1)
		if err != nil {
			t.Fatal(err)
		}
		policy.Observe(&reps[0])
	}
	if policy.Latched() {
		t.Errorf("failure alarm latched on a healthy source (%d noise alarms)", policy.NoiseAlarms())
	}
	// Expected noise alarms ≈ 50 sequences × 6 tests × 0.001 = 0.3.
	if policy.NoiseAlarms() > 3 {
		t.Errorf("%d noise alarms in 50 sequences — false-alarm rate too high", policy.NoiseAlarms())
	}
	if len(m.History()) != 10 {
		t.Errorf("history kept %d entries, want 10", len(m.History()))
	}
	if m.BitsSeen() != 50*65536 {
		t.Errorf("BitsSeen = %d", m.BitsSeen())
	}
}
