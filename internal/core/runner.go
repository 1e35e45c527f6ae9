package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/sweval"
	"repro/internal/trng"
)

// SequenceRunner shards independent test sequences across a pool of worker
// goroutines, one monitor per worker. Each trial gets its own source
// (built by the caller's factory from the trial index), so the work is
// embarrassingly parallel and the results are deterministic: results[i]
// depends only on makeSource(i), never on scheduling, and running with one
// worker or sixteen produces identical reports.
type SequenceRunner struct {
	// Cfg is the monitored design.
	Cfg hwblock.Config
	// Alpha is the level of significance.
	Alpha float64
	// Workers is the pool size; ≤ 0 means GOMAXPROCS.
	Workers int
	// Path selects the ingest path for every worker's block (the default,
	// hwblock.FastPath, is the word-level model).
	Path hwblock.IngestPath
	// Opts are passed to the software evaluator's critical-value
	// derivation.
	Opts []sweval.Option
	// Obs, if set, instruments every worker monitor through the shared
	// registry and exposes per-worker utilization
	// (trng_runner_trials_total by worker). The registry's counters are
	// atomic, so sharing them across workers is race-free, and because
	// results stay index-addressed the determinism guarantee is
	// unchanged: instrumented and uninstrumented runs produce identical
	// reports.
	Obs *obs.Registry
}

// Run evaluates one sequence per trial: trial i is monitored over the
// source makeSource(i), and its report lands at index i of the result.
// Worker monitors are reset — not reallocated — between trials. The first
// failing trial (by index, not by completion order) aborts the run with
// its error.
func (sr *SequenceRunner) Run(trials int, makeSource func(trial int) trng.Source) ([]SequenceReport, error) {
	if trials < 1 {
		return nil, fmt.Errorf("core: need at least one trial")
	}
	workers := sr.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}

	// Build the monitors up front so construction errors surface before
	// any goroutine starts.
	mons := make([]*Monitor, workers)
	for i := range mons {
		m, err := NewMonitor(sr.Cfg, sr.Alpha, sr.Opts...)
		if err != nil {
			return nil, err
		}
		if err := m.Block().SetPath(sr.Path); err != nil {
			return nil, err
		}
		m.SetObs(sr.Obs)
		// Every report carries its software cost (otftest -workers prints it).
		m.Metered = true
		mons[i] = m
	}
	sr.Obs.Gauge("trng_runner_workers", "worker-pool size of the sequence fan-out").
		Set(float64(workers))

	results := make([]SequenceReport, trials)
	errs := make([]error, trials)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m := mons[w]
		trialsDone := sr.Obs.Counter("trng_runner_trials_total",
			"trials completed per fan-out worker", "worker", fmt.Sprintf("%d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= trials {
					return
				}
				m.Reset()
				reps, err := m.Watch(makeSource(i), 1)
				trialsDone.Inc()
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = reps[0]
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: trial %d: %w", i, err)
		}
	}
	return results, nil
}
