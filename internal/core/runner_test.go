package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/trng"
)

func runnerConfig(t *testing.T) hwblock.Config {
	t.Helper()
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSequenceRunnerDeterministic runs the same trials serially and across
// pools of several sizes: every report must be identical, verdict by
// verdict, regardless of scheduling.
func TestSequenceRunnerDeterministic(t *testing.T) {
	cfg := runnerConfig(t)
	const trials = 12
	makeSource := func(trial int) trng.Source {
		return trng.NewBiased(0.55, int64(trial)*7+1)
	}
	serial, err := (&SequenceRunner{Cfg: cfg, Alpha: 0.01, Workers: 1}).Run(trials, makeSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		got, err := (&SequenceRunner{Cfg: cfg, Alpha: 0.01, Workers: workers}).Run(trials, makeSource)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i].Index != serial[i].Index || got[i].StartBit != serial[i].StartBit {
				t.Fatalf("workers=%d trial %d: header differs", workers, i)
			}
			if !reflect.DeepEqual(got[i].Report.Verdicts, serial[i].Report.Verdicts) {
				t.Fatalf("workers=%d trial %d: verdicts differ\n got: %+v\nwant: %+v",
					workers, i, got[i].Report.Verdicts, serial[i].Report.Verdicts)
			}
			// Worker monitors meter: otftest -workers prints each cost.
			if got[i].Report.Cost != serial[i].Report.Cost || got[i].Report.Cost.Total() == 0 {
				t.Fatalf("workers=%d trial %d: cost %v, serial %v", workers, i, got[i].Report.Cost, serial[i].Report.Cost)
			}
		}
	}
}

// TestPowerSweepWorkersIdentical checks the acceptance criterion directly:
// the parallel sweep must be byte-identical to the serial one.
func TestPowerSweepWorkersIdentical(t *testing.T) {
	cfg := runnerConfig(t)
	severities := []float64{0.52, 0.58, 0.65}
	makeSource := func(sev float64, seed int64) trng.Source {
		return trng.NewBiased(sev, seed*13+int64(sev*1000))
	}
	serial, err := PowerSweepWorkers(cfg, 0.01, severities, 8, 1, makeSource)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := PowerSweepWorkers(cfg, 0.01, severities, 8, 0, makeSource)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep results differ between worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// PowerSweep itself routes through the pool and must agree too.
	viaDefault, err := PowerSweep(cfg, 0.01, severities, 8, makeSource)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, viaDefault) {
		t.Fatal("PowerSweep disagrees with explicit-worker sweep")
	}
}

// truncatedSource yields n bits then fails, for error-path coverage.
type truncatedSource struct {
	inner trng.Source
	left  int
}

func (s *truncatedSource) Name() string { return "truncated" }

func (s *truncatedSource) ReadBit() (byte, error) {
	if s.left <= 0 {
		return 0, errors.New("source exhausted")
	}
	s.left--
	return s.inner.ReadBit()
}

// TestSequenceRunnerFirstErrorByIndex checks that the reported failure is the
// lowest failing trial index, independent of completion order.
func TestSequenceRunnerFirstErrorByIndex(t *testing.T) {
	cfg := runnerConfig(t)
	sr := &SequenceRunner{Cfg: cfg, Alpha: 0.01, Workers: 4}
	_, err := sr.Run(8, func(trial int) trng.Source {
		if trial == 3 || trial == 6 {
			return &truncatedSource{inner: trng.NewIdeal(int64(trial)), left: 10}
		}
		return trng.NewIdeal(int64(trial))
	})
	if err == nil {
		t.Fatal("expected an error from the truncated trials")
	}
	if !strings.Contains(err.Error(), "trial 3") {
		t.Fatalf("error %q does not name the first failing trial (3)", err)
	}
}
