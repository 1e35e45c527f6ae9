package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/trng"
)

// renderReports serializes every statistical field of a run byte for byte,
// so two runs compare at the level the paper's results are stated at.
func renderReports(reps []SequenceReport) []byte {
	var b bytes.Buffer
	for _, r := range reps {
		fmt.Fprintf(&b, "seq %d start %d pass %v\n", r.Index, r.StartBit, r.Report.Pass())
		for _, v := range r.Report.Verdicts {
			fmt.Fprintf(&b, "  test %d stat %d thr %d pass %v note %q\n",
				v.TestID, v.Statistic, v.Threshold, v.Pass, v.Note)
		}
		fmt.Fprintf(&b, "  cost %s\n", r.Report.Cost.String())
	}
	return b.Bytes()
}

// TestObsDifferentialWatch proves the tentpole invariant: attaching a
// registry to a monitor changes no statistical output bit. Two monitors
// consume the same seeded stream; one is instrumented, one is not. Reports
// and final register images must be byte-identical.
func TestObsDifferentialWatch(t *testing.T) {
	for _, path := range []hwblock.IngestPath{hwblock.FastPath, hwblock.CycleAccurate} {
		plain := newMonitor(t, 128, hwblock.Light, 0.01)
		instr := newMonitor(t, 128, hwblock.Light, 0.01)
		if err := plain.Block().SetPath(path); err != nil {
			t.Fatal(err)
		}
		if err := instr.Block().SetPath(path); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		instr.SetObs(reg)

		// A biased source fails some tests, so both pass and fail verdict
		// counters fire on the instrumented side.
		plainReps, err := plain.Watch(trng.NewBiased(0.6, 7), 6)
		if err != nil {
			t.Fatal(err)
		}
		instrReps, err := instr.Watch(trng.NewBiased(0.6, 7), 6)
		if err != nil {
			t.Fatal(err)
		}

		pr, ir := renderReports(plainReps), renderReports(instrReps)
		if !bytes.Equal(pr, ir) {
			t.Errorf("%v: instrumented run diverged:\nplain:\n%s\ninstrumented:\n%s", path, pr, ir)
		}
		pi := plain.Block().RegFile().Image()
		ii := instr.Block().RegFile().Image()
		if !reflect.DeepEqual(pi, ii) {
			t.Errorf("%v: register images diverged:\nplain: %v\ninstr: %v", path, pi, ii)
		}

		// Sanity on the instrumented side: the counters saw the run.
		if got := reg.Counter("trng_monitor_sequences_total", "", "result", "pass").Value() +
			reg.Counter("trng_monitor_sequences_total", "", "result", "fail").Value(); got != 6 {
			t.Errorf("%v: instrumented sequence count = %d, want 6", path, got)
		}
		if reg.Gauge("trng_monitor_bits_seen", "").Value() != 6*128 {
			t.Errorf("%v: bits-seen gauge = %v, want %d",
				path, reg.Gauge("trng_monitor_bits_seen", "").Value(), 6*128)
		}
	}
}

// TestObsDifferentialSupervisor repeats the proof for the supervised
// pipeline: fault injection, retries and quarantine behave identically
// with and without a registry attached to supervisor and injectors.
func TestObsDifferentialSupervisor(t *testing.T) {
	build := func(reg *obs.Registry) *SupervisorReport {
		t.Helper()
		m := newMonitor(t, 128, hwblock.Light, 0.01)
		flaky := faultinject.NewFlaky(trng.NewIdeal(11), 0.01, 2, 99)
		flaky.SetObs(reg)
		sup := NewSupervisor(m, flaky, nil, SupervisorConfig{})
		sup.SetObs(reg)
		rep, err := sup.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := build(nil)
	reg := obs.NewRegistry()
	instr := build(reg)
	if !reflect.DeepEqual(plain, instr) {
		t.Errorf("supervised runs diverged:\nplain: %+v\ninstrumented: %+v", plain, instr)
	}
	if plain.Retries == 0 {
		t.Error("fault rate produced no retries; the differential scenario is degenerate")
	}
	if got := int(reg.Counter("trng_supervisor_retries_total", "").Value()); got != instr.Retries {
		t.Errorf("retry counter = %d, want %d", got, instr.Retries)
	}
	if got := reg.Counter("trng_fault_injected_total", "", "kind", "flaky").Value(); got == 0 {
		t.Error("instrumented injector counted no faults")
	}
}

// TestObsDifferentialRunner proves the fan-out path: a parallel
// instrumented run equals a serial uninstrumented one report for report.
func TestObsDifferentialRunner(t *testing.T) {
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(trial int) trng.Source { return trng.NewIdeal(100 + int64(trial)) }
	plain, err := (&SequenceRunner{Cfg: cfg, Alpha: 0.01, Workers: 1}).Run(8, mk)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sr := &SequenceRunner{Cfg: cfg, Alpha: 0.01, Workers: 4, Obs: reg}
	instr, err := sr.Run(8, mk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReports(plain), renderReports(instr)) {
		t.Error("instrumented parallel run diverged from serial uninstrumented run")
	}
	var trials uint64
	for w := 0; w < 4; w++ {
		trials += reg.Counter("trng_runner_trials_total", "", "worker", fmt.Sprintf("%d", w)).Value()
	}
	if trials != 8 {
		t.Errorf("per-worker trial counters sum to %d, want 8", trials)
	}
}
