// Command trngd is the fleet-scale monitoring daemon: it multiplexes many
// concurrent TRNG streams over internal/fleet's sharded pool of pooled
// monitors and reports per-tenant verdicts, fault isolation and load
// shedding. Without real hardware attached it drives a simulated defect
// zoo — a configurable fraction of tenants misbehaves (bias, transient
// storms, hard-fault storms that trip the per-stream breaker) while the
// rest stream healthy bits — which makes the daemon double as a chaos-soak
// harness: CI runs it race-enabled for a bounded wall time and asserts the
// batch accounting identity and per-stream isolation invariants.
//
// Usage:
//
//	trngd -n 128 -variant light -streams 256 -words 128
//	trngd -streams 1024 -shards 8 -policy shed -queue 16
//	trngd -streams 64 -faulty 0.25 -generations 2 -metrics-addr :9600
//
// Exit codes: 0 clean (statistical failures from the defect zoo are
// expected and reported, not fatal), 2 operational failure (bad flags, an
// admission/ingest error, or a broken accounting invariant).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/trng"
)

// options carries every flag; main parses, run executes (the same
// testable split as cmd/otftest).
type options struct {
	n             int
	variant       string
	alpha         float64
	streams       int
	words         int
	generations   int
	shards        int
	queue         int
	policy        string
	sampleEvery   int
	maxStreams    int
	faultyFrac    float64
	transientRate float64
	biasedFrac    float64
	bias          float64
	seed          int64
	bitSliced     bool
	verifyReadout bool
	alarm         int
	deadline      time.Duration
	sweepEvery    time.Duration
	metricsAddr   string

	stdout io.Writer
	stderr io.Writer
	// boundAddr receives the metrics listener's bound address; nil
	// discards it.
	boundAddr *string
}

func main() {
	o := options{stdout: os.Stdout, stderr: os.Stderr}
	flag.IntVar(&o.n, "n", 128, "sequence length (128, 65536 or 1048576)")
	flag.StringVar(&o.variant, "variant", "light", "design variant: light, medium or high")
	flag.Float64Var(&o.alpha, "alpha", 0.01, "level of significance")
	flag.IntVar(&o.streams, "streams", 256, "concurrent TRNG streams (tenants)")
	flag.IntVar(&o.words, "words", 64, "64-bit words pushed per stream per generation")
	flag.IntVar(&o.generations, "generations", 1, "register/detach cycles per tenant slot (exercises monitor recycling)")
	flag.IntVar(&o.shards, "shards", 0, "shard worker goroutines (0 = all CPUs)")
	flag.IntVar(&o.queue, "queue", 0, "per-shard ingest queue depth, in batches (0 = default)")
	flag.StringVar(&o.policy, "policy", "block", "full-queue policy: block (backpressure), shed (drop newest), sample (degrade to sampled ingest)")
	flag.IntVar(&o.sampleEvery, "sample-every", 0, "keep one in this many congested batches under -policy sample (0 = default)")
	flag.IntVar(&o.maxStreams, "max-streams", 0, "admission cap (0 = unlimited)")
	flag.Float64Var(&o.faultyFrac, "faulty", 0.125, "fraction of tenants with a faulting source (transient storms; a subset storms hard enough to trip the breaker)")
	flag.Float64Var(&o.transientRate, "transient-rate", 0.05, "per-batch transient fault probability on faulty tenants")
	flag.Float64Var(&o.biasedFrac, "biased", 0.0625, "fraction of tenants streaming a biased (statistically defective) source")
	flag.Float64Var(&o.bias, "bias", 0.75, "P(bit=1) of the biased tenants")
	flag.Int64Var(&o.seed, "seed", 1, "base seed; every tenant derives its own deterministic substream")
	flag.BoolVar(&o.bitSliced, "bitsliced", false, "use bit-sliced lane-group ingest (transposed 64-stream tiles; see internal/hwslice); verdicts are bit-identical to serial ingest")
	flag.BoolVar(&o.verifyReadout, "verify-readout", false, "double-evaluate each sequence and quarantine on readout mismatch")
	flag.IntVar(&o.alarm, "alarm-threshold", 0, "latch a per-stream alarm after this many consecutive failing sequences (0 = off)")
	flag.DurationVar(&o.deadline, "stream-deadline", 0, "per-stream push deadline; stalled streams get watchdog faults (0 = off)")
	flag.DurationVar(&o.sweepEvery, "sweep-every", 100*time.Millisecond, "stall-sweeper period when -stream-deadline is set")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address")
	flag.Parse()
	os.Exit(run(o))
}

// tenantPlan is one tenant's deterministic behaviour profile.
type tenantPlan struct {
	name    string
	seed    int64
	faulty  bool // transient storms at transientRate
	stormer bool // additionally trips its breaker with consecutive hard faults
	biased  bool // statistically defective payload
}

func run(o options) int {
	fatal := func(err error) int {
		fmt.Fprintln(o.stderr, "trngd:", err)
		return 2
	}
	v, err := hwblock.ParseVariant(o.variant)
	if err != nil {
		return fatal(err)
	}
	design, err := hwblock.NewConfig(o.n, v)
	if err != nil {
		return fatal(err)
	}
	policy, err := fleet.ParseShedPolicy(o.policy)
	if err != nil {
		return fatal(err)
	}
	if o.streams < 1 || o.words < 1 || o.generations < 1 {
		return fatal(fmt.Errorf("-streams, -words and -generations must be ≥ 1"))
	}

	reg := obs.NewRegistry()
	if o.metricsAddr != "" {
		_, addr, err := obs.Serve(o.metricsAddr, reg)
		if err != nil {
			return fatal(err)
		}
		if o.boundAddr != nil {
			*o.boundAddr = addr
		}
		fmt.Fprintf(o.stdout, "metrics: serving http://%s/metrics (json: /metrics.json, trace: /trace, pprof: /debug/pprof/)\n", addr)
	}

	pool, err := fleet.New(fleet.Config{
		Design:         design,
		Alpha:          o.alpha,
		Shards:         o.shards,
		QueueDepth:     o.queue,
		MaxStreams:     o.maxStreams,
		Policy:         policy,
		SampleEvery:    o.sampleEvery,
		BitSliced:      o.bitSliced,
		VerifyReadout:  o.verifyReadout,
		AlarmThreshold: o.alarm,
		StreamDeadline: o.deadline,
		Obs:            reg,
	})
	if err != nil {
		return fatal(err)
	}
	cfg := pool.Config()
	ingest := "serial"
	if cfg.BitSliced {
		ingest = "bitsliced"
	}
	fmt.Fprintf(o.stdout, "trngd: design=%s alpha=%g shards=%d queue=%d policy=%s ingest=%s streams=%d words=%d generations=%d\n",
		design.Name, o.alpha, cfg.Shards, cfg.QueueDepth, policy, ingest, o.streams, o.words, o.generations)

	// The stall sweeper, when armed, runs the fleet-level watchdog.
	sweepDone := make(chan struct{})
	var sweepWG sync.WaitGroup
	if o.deadline > 0 {
		sweepWG.Add(1)
		go func() {
			defer sweepWG.Done()
			t := time.NewTicker(o.sweepEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					pool.SweepStalled()
				case <-sweepDone:
					return
				}
			}
		}()
	}

	// One pump goroutine per tenant slot, each running `generations`
	// register/push/detach cycles against its own deterministic plan.
	reports := make([]fleet.StreamReport, 0, o.streams*o.generations)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for slot := 0; slot < o.streams; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for gen := 0; gen < o.generations; gen++ {
				plan := planFor(o, slot, gen)
				rep, err := runTenant(pool, plan, o)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("tenant %s: %w", plan.name, err)
				}
				if err == nil {
					reports = append(reports, rep)
				}
				mu.Unlock()
			}
		}(slot)
	}
	wg.Wait()
	close(sweepDone)
	sweepWG.Wait()
	leftover := pool.Shutdown()
	reports = append(reports, leftover...)
	if firstErr != nil {
		return fatal(firstErr)
	}
	return summarize(o, reports, reg)
}

// planFor derives one tenant's deterministic behaviour from the base seed.
func planFor(o options, slot, gen int) tenantPlan {
	// Behaviour classes are assigned by slot position so the configured
	// fractions are exact, not sampled.
	faultyCut := int(o.faultyFrac * float64(o.streams))
	biasedCut := faultyCut + int(o.biasedFrac*float64(o.streams))
	p := tenantPlan{
		name: fmt.Sprintf("tenant-%04d-g%d", slot, gen),
		seed: o.seed + int64(slot)*1_000_003 + int64(gen)*7_919,
	}
	switch {
	case slot < faultyCut:
		p.faulty = true
		p.stormer = slot%4 == 0 // every fourth faulty tenant trips its breaker
	case slot < biasedCut:
		p.biased = true
	}
	return p
}

// runTenant registers, pumps and detaches one tenant generation.
func runTenant(pool *fleet.Pool, plan tenantPlan, o options) (fleet.StreamReport, error) {
	s, err := pool.Register(plan.name)
	if err != nil {
		return fleet.StreamReport{}, err
	}
	rng := rand.New(rand.NewSource(plan.seed))
	var src trng.Source = trng.NewIdeal(plan.seed)
	if plan.biased {
		src = trng.NewBiased(o.bias, plan.seed)
	}
	stormAt := -1
	if plan.stormer {
		stormAt = o.words / 2
	}
	hard := errors.New("trngd: injected hard source fault")
	// Healthy tenants push through the batched producer API in small runs
	// — the realistic shape for a DMA'd hardware source, and the fast path
	// on bit-sliced pools (one atomic publish per staging fill). Tenants
	// that interleave fault events keep the word-at-a-time path so the
	// fault lands at its exact position in the batch order.
	const runWords = 32
	var run []uint64
	if !plan.faulty && stormAt < 0 {
		run = make([]uint64, 0, runWords)
	}
	for i := 0; i < o.words; i++ {
		var w uint64
		for b := 0; b < 64; b++ {
			bit, err := src.ReadBit()
			if err != nil {
				return fleet.StreamReport{}, err
			}
			w |= uint64(bit&1) << uint(b)
		}
		if run != nil {
			run = append(run, w)
			if len(run) == runWords || i == o.words-1 {
				if err := s.PushWords(run); err != nil &&
					!errors.Is(err, fleet.ErrShed) && !errors.Is(err, fleet.ErrSampledOut) {
					return fleet.StreamReport{}, err
				}
				run = run[:0]
			}
			continue
		}
		if err := s.Push(w, 64); err != nil &&
			!errors.Is(err, fleet.ErrShed) && !errors.Is(err, fleet.ErrSampledOut) {
			return fleet.StreamReport{}, err
		}
		if plan.faulty && rng.Float64() < o.transientRate {
			if err := s.PushFault(trng.ErrTransient); err != nil {
				return fleet.StreamReport{}, err
			}
		}
		if i == stormAt {
			// Consecutive mid-sequence hard faults until the breaker trips.
			for k := 0; k < core.DefaultQuarantineLimit+2; k++ {
				if err := s.Push(rng.Uint64(), 32); err != nil &&
					!errors.Is(err, fleet.ErrShed) && !errors.Is(err, fleet.ErrSampledOut) {
					return fleet.StreamReport{}, err
				}
				if err := s.PushFault(hard); err != nil {
					return fleet.StreamReport{}, err
				}
			}
		}
	}
	return s.Detach(), nil
}

// summarize prints the fleet-wide roll-up and enforces the accounting
// identity every report must satisfy.
func summarize(o options, reports []fleet.StreamReport, reg *obs.Registry) int {
	var seq, pass, fail, quar, retries, watchdogs, trips, latched int
	var offered, accepted, shed, sampled, discarded int64
	conditions := map[core.Condition]int{}
	broken := 0
	for _, r := range reports {
		seq += r.Sequences
		pass += r.Passed
		fail += r.Failed
		quar += r.Quarantined
		retries += r.Retries
		watchdogs += r.Watchdogs
		if r.BreakerTripped {
			trips++
		}
		if r.AlarmLatched {
			latched++
		}
		offered += r.OfferedBatches
		accepted += r.AcceptedBatches
		shed += r.ShedBatches
		sampled += r.SampledOutBatches
		discarded += r.DiscardedBatches
		conditions[r.Condition]++
		if r.OfferedBatches != r.AcceptedBatches+r.ShedBatches+r.SampledOutBatches+r.DiscardedBatches {
			broken++
			fmt.Fprintf(o.stderr, "trngd: %s: batch accounting broken: offered %d != accepted %d + shed %d + sampled %d + discarded %d\n",
				r.Tenant, r.OfferedBatches, r.AcceptedBatches, r.ShedBatches, r.SampledOutBatches, r.DiscardedBatches)
		}
	}
	fmt.Fprintf(o.stdout, "streams: %d completed\n", len(reports))
	fmt.Fprintf(o.stdout, "sequences: %d evaluated (%d pass, %d fail)\n", seq, pass, fail)
	fmt.Fprintf(o.stdout, "batches: %d offered, %d accepted, %d shed, %d sampled-out, %d discarded\n",
		offered, accepted, shed, sampled, discarded)
	fmt.Fprintf(o.stdout, "faults: %d transient absorbed, %d watchdog; %d quarantines, %d breaker trips, %d alarms latched\n",
		retries, watchdogs, quar, trips, latched)
	fmt.Fprintf(o.stdout, "conditions: %d ok, %d degraded, %d stat-fail, %d source-fault\n",
		conditions[core.OK], conditions[core.Degraded], conditions[core.StatFail], conditions[core.SourceFault])
	if o.bitSliced {
		// A bit-sliced run that absorbs no tile drained every bit serially
		// at Detach: it has not exercised the lane-group engine at all.
		fmt.Fprintf(o.stdout, "sliced: %d tiles absorbed\n", reg.Counter("fleet_sliced_tiles_total", "").Value())
	}
	if broken > 0 {
		fmt.Fprintf(o.stderr, "trngd: %d stream(s) with broken batch accounting\n", broken)
		return 2
	}
	return 0
}
