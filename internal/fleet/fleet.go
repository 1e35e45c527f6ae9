// Package fleet multiplexes thousands of concurrent TRNG streams over a
// sharded pool of reusable core monitors — the paper's single always-on
// testing platform (Fig. 1) scaled to a multi-tenant service. Each
// registered stream owns one pooled, resettable core.Monitor (recycled
// through Reset, never reallocated while the fleet runs); streams are
// assigned round-robin to shards, and each shard is one goroutine draining
// a bounded ingest queue, so per-stream statistics are computed exactly as
// a serial single-stream run would compute them — the chaos suite proves
// verdict-level byte identity for every stream that was not shed.
//
// Robustness is the design driver:
//
//   - Backpressure: every shard queue is bounded. The Block policy makes
//     Push block (pure backpressure); ShedNewest drops the offered batch
//     when the queue is full (reported per tenant and in the aggregate
//     counters); DegradeSample degrades a congested stream to sampled
//     ingest — it keeps one of every SampleEvery batches offered while
//     congested, so a tenant whose ingest outruns evaluation is still
//     monitored, at reduced resolution, instead of silently dropped.
//   - Fault isolation: source faults are per-stream events. A transient
//     fault (trng.ErrTransient) is counted and absorbed; a hard fault
//     quarantines the in-flight sequence exactly as core.Supervisor does
//     (the hardware is reset, nothing is evaluated on suspect bits); a
//     run of consecutive quarantines or hard faults trips a per-stream
//     circuit breaker that takes only that stream out of service —
//     Condition vocabulary, quarantine semantics and event kinds are
//     shared with core.Supervisor, and one misbehaving tenant cannot
//     starve its shard or perturb any other stream's verdicts.
//   - Admission control: Register fails fast with typed errors
//     (ErrFleetFull, ErrDuplicateTenant, ErrShuttingDown).
//   - Clean lifecycle: streams register and detach mid-flight; Detach and
//     Shutdown drain the queues and flush every stream's partial results
//     as a StreamReport (completed-sequence reports, counters, incident
//     timeline), and detached monitors return to the pool.
//
// Two opt-in ingest extensions preserve the serial contract bit for bit:
//
//   - Bit-sliced ingest (Config.BitSliced): each shard regroups resident
//     streams into 64-lane groups advanced through one internal/hwslice
//     engine, a burst of 64-bit tiles per call. Sequence
//     boundaries and lane evictions hand each lane's state back to its
//     own monitor, so verdicts, alarms, breaker trips and accounting are
//     byte-identical to the serial path (DESIGN.md §6.2).
//   - Online anomaly tracking (Config.Online): every stream carries a
//     pooled internal/online tracker fed the same bits as its monitor
//     (per take-chunk on the serial path, per lane-group tile on the
//     sliced path — Push is segmentation-invariant, so the trajectories
//     coincide). Observation-only unless Config.OnlineQuarantine latches
//     confirmed alarms at the next sequence boundary (DESIGN.md §6.3).
//
// Everything is observable through internal/obs: aggregate admission,
// batch-outcome, fault, quarantine, breaker and verdict counters, plus
// per-shard queue-depth gauges and optional per-tenant families — shed
// and degraded ingest is accounted, never silent.
//
// The package is deterministic per stream: verdicts depend only on the
// bytes (and fault events) pushed into that stream, in order, never on
// scheduling. The only wall-clock dependence is the optional stall
// sweeper (StreamDeadline), which is off by default and replaceable
// through Config.Clock.
//
//trnglint:deterministic
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hwblock"
	"repro/internal/hwslice"
	"repro/internal/obs"
	"repro/internal/online"
)

// Typed admission and data-plane errors. Producers match them with
// errors.Is; they are sentinels so the hot path never allocates.
var (
	// ErrFleetFull rejects an admission over Config.MaxStreams.
	ErrFleetFull = errors.New("fleet: admission rejected: fleet at capacity")
	// ErrDuplicateTenant rejects a second registration of a live tenant.
	ErrDuplicateTenant = errors.New("fleet: admission rejected: tenant already registered")
	// ErrShuttingDown rejects admissions and pushes once Shutdown began.
	ErrShuttingDown = errors.New("fleet: pool is shutting down")
	// ErrDetached rejects pushes to a stream that has been detached.
	ErrDetached = errors.New("fleet: stream is detached")
	// ErrShed reports that the offered batch was dropped by the ShedNewest
	// policy. The push "succeeded" operationally — the caller may keep
	// pushing — but the batch is gone and the stream is marked shed.
	ErrShed = errors.New("fleet: batch shed: shard queue full")
	// ErrSampledOut reports that the offered batch was dropped by the
	// DegradeSample policy (the stream is congested and this batch was not
	// the sampled one).
	ErrSampledOut = errors.New("fleet: batch sampled out: stream degraded to sampled ingest")
)

// ShedPolicy selects what Push does when a shard's ingest queue is full.
type ShedPolicy int

const (
	// Block applies pure backpressure: Push blocks until the shard
	// drains. No data is ever lost; producers slow to evaluation speed.
	Block ShedPolicy = iota
	// ShedNewest drops the offered batch and returns ErrShed. The stream
	// keeps running on the batches that do land, but its verdicts are no
	// longer comparable to a lossless serial run (StreamReport.Shed).
	ShedNewest
	// DegradeSample degrades a congested stream to sampled ingest: while
	// the queue is full, one of every SampleEvery offered batches is
	// delivered (blocking for its slot) and the rest return ErrSampledOut.
	DegradeSample
)

// String names the policy for flags and reports.
func (p ShedPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case ShedNewest:
		return "shed"
	case DegradeSample:
		return "sample"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseShedPolicy parses the String form.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "block":
		return Block, nil
	case "shed":
		return ShedNewest, nil
	case "sample":
		return DegradeSample, nil
	}
	return 0, fmt.Errorf("fleet: unknown shed policy %q (want block, shed or sample)", s)
}

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultQueueDepth  = 1024
	DefaultSampleEvery = 8
	DefaultKeepReports = 16
	// maxStreamEvents bounds each stream's retained incident timeline;
	// later incidents are still counted, just not logged.
	maxStreamEvents = 64
)

// Config tunes a Pool.
type Config struct {
	// Design is the monitored testing-block design (one per pool; every
	// stream of the pool runs this design).
	Design hwblock.Config
	// Alpha is the level of significance of the software evaluation.
	Alpha float64

	// Shards is the number of worker goroutines; ≤ 0 means GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard ingest-queue bound, in batches
	// (0 = DefaultQueueDepth).
	QueueDepth int
	// MaxStreams is the admission cap (0 = unlimited).
	MaxStreams int
	// Policy selects the full-queue behaviour; see ShedPolicy.
	Policy ShedPolicy
	// SampleEvery is the DegradeSample keep rate: one of every SampleEvery
	// congested batches is delivered (0 = DefaultSampleEvery; 1 delivers
	// every congested batch, degenerating to Block; negative is a
	// configuration error).
	SampleEvery int

	// QuarantineLimit trips the per-stream circuit breaker after this many
	// consecutive quarantines (or hard faults) with no accepted sequence
	// in between. 0 means core.DefaultQuarantineLimit; negative disables
	// the breaker.
	QuarantineLimit int
	// AlarmThreshold, if > 0, arms a per-stream core.AlarmPolicy latching
	// after that many consecutive failing sequences (Condition StatFail).
	AlarmThreshold int
	// VerifyReadout double-evaluates every sequence and quarantines on a
	// readout mismatch — core.Supervisor's defense, per stream.
	VerifyReadout bool
	// KeepReports bounds each stream's retained sequence reports
	// (0 = DefaultKeepReports; negative keeps everything). It is the
	// stream monitor's core.Monitor.KeepHistory: the monitor reuses a
	// retained report once KeepReports newer sequences have completed, so
	// a *core.SequenceReport seen before Detach is valid only that long.
	// The reports StreamReport.Reports carries belong to the tenant:
	// Detach takes them from the monitor, which never writes them again.
	KeepReports int

	// BitSliced switches the shards to bit-sliced ingest: resident
	// streams are grouped into 64-wide lane groups whose
	// word-parallelizable statistics (frequency, runs, cusum, longest run)
	// advance through one shared internal/hwslice engine per group, a
	// burst of 64-bit tiles at a time, while each stream's own monitor
	// runs only the residual per-stream engines on the original words.
	// Producers additionally stage batches (stageBatches per queue
	// handoff), so Push throughput rises severalfold at high stream
	// density. Verdicts,
	// accounting and incident timelines stay byte-identical to the serial
	// path; a stream that cannot stay lane-aligned (detach, hard fault,
	// starving fifo) falls back to serial ingest transparently. Requires a
	// design whose sequence length is a multiple of 64 (below 2^31) and
	// whose block-frequency and longest-run block lengths each divide 64
	// or are a multiple of 64 — every hwblock.NewConfig design, and every
	// hwblock.NewCustomConfig design below that length, qualifies.
	BitSliced bool

	// Online, if set, runs a per-stream streaming anomaly tracker
	// (internal/online) over exactly the bits each stream's monitor
	// consumes, in consumption order — identical on the serial and
	// bit-sliced paths, so a stream's score trajectory is as deterministic
	// as its verdicts. The tracker never touches service decisions unless
	// OnlineQuarantine is also set: with Online alone the fleet is in
	// observation mode (per-tenant anomaly gauges, StreamReport score
	// fields, fleet_online_alarms_total), and every verdict, event and
	// counter is identical to a pool with Online nil.
	Online *online.Config
	// OnlineQuarantine takes a stream whose online tracker has latched out
	// of service at its next accepted sequence boundary, through the same
	// latch path as AlarmThreshold (AlarmLatched, Condition StatFail,
	// EventAlarmLatched). Boundary-latched on purpose: mid-sequence feeds
	// never stop a stream (the bit-sliced tile path depends on it), and
	// the detection bit is recorded by the tracker the moment the score
	// confirmed, so no latency measurement is lost by latching at the
	// boundary. Requires Online.
	OnlineQuarantine bool

	// StreamDeadline arms the stall sweeper: SweepStalled injects a
	// watchdog fault into any stream that has not pushed within the
	// deadline. 0 disables the sweeper and keeps the pool free of any
	// wall-clock dependence.
	StreamDeadline time.Duration
	// Clock supplies nanosecond timestamps for the stall sweeper; nil
	// means the wall clock. Tests inject a fake.
	Clock func() int64

	// Obs, if set, instruments the pool; see the package comment.
	Obs *obs.Registry
	// PerTenantObs additionally registers per-tenant verdict, shed and
	// quarantine counters (one metric per tenant — significant registry
	// growth at fleet scale, so it is opt-in).
	PerTenantObs bool
}

// withDefaults returns the normalized configuration.
func (c Config) withDefaults() (Config, error) {
	if c.Design.N < 64 {
		return c, fmt.Errorf("fleet: design %q: sequence length %d below the 64-bit word ingest floor", c.Design.Name, c.Design.N)
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.SampleEvery < 0 {
		return c, fmt.Errorf("fleet: SampleEvery %d is negative (0 selects the default, 1 delivers every congested batch)", c.SampleEvery)
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.QuarantineLimit == 0 {
		c.QuarantineLimit = core.DefaultQuarantineLimit
	}
	// KeepReports keeps the user's sentinel (negative = keep everything) so
	// Config() round-trips into New without flipping semantics; Register
	// translates to the Monitor's 0-keeps-everything convention.
	if c.KeepReports == 0 {
		c.KeepReports = DefaultKeepReports
	}
	if c.BitSliced {
		// Fail admission-time, not adoption-time: the design must be
		// expressible as a lane group (n a tile multiple, each block
		// length dividing n and either dividing 64 or a multiple of 64).
		// The throwaway group is the cheapest full check.
		if _, err := hwslice.New(c.Design.N, c.Design.Tests, c.Design.Params); err != nil {
			return c, fmt.Errorf("fleet: BitSliced: %w", err)
		}
	}
	if c.Online != nil {
		// Same admission-time discipline: a throwaway tracker is the full
		// validity check, so Register's per-stream construction can never
		// fail on a config the pool accepted.
		if _, err := online.New(c.Design, *c.Online); err != nil {
			return c, fmt.Errorf("fleet: Online: %w", err)
		}
	} else if c.OnlineQuarantine {
		return c, fmt.Errorf("fleet: OnlineQuarantine set without Online: no tracker to quarantine on")
	}
	if c.Clock == nil {
		//trnglint:allow determinism the stall sweeper is deliberately wall-clock (it exists to bound a silent producer); it is armed only when StreamDeadline > 0 and tests inject a fake clock
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return c, nil
}

// StreamReport is the flushed outcome of one stream: everything a tenant
// (or the drain-on-shutdown path) learns when the stream detaches.
type StreamReport struct {
	// Tenant names the stream.
	Tenant string
	// Reports are the retained accepted sequence reports (bounded by
	// Config.KeepReports; Sequences counts all of them).
	Reports []core.SequenceReport
	// Sequences, Passed and Failed count every evaluated sequence.
	Sequences, Passed, Failed int
	// Condition is the stream's operational verdict, in the Supervisor's
	// vocabulary: OK, Degraded, StatFail or SourceFault (a tripped
	// breaker).
	Condition core.Condition
	// Quarantined counts sequences discarded without evaluation; Retries
	// counts absorbed transient faults; Watchdogs counts stall sweeps;
	// Faults counts every fault event delivered to the stream.
	Quarantined, Retries, Watchdogs, Faults int
	// BreakerTripped reports that the quarantine circuit breaker opened
	// and the stream was taken out of service.
	BreakerTripped bool
	// AlarmLatched reports a latched statistical alarm (StatFail).
	AlarmLatched bool
	// Batch accounting: Offered = every Push; Accepted = processed by the
	// shard; Shed/SampledOut = dropped by the load-shedding policy;
	// Discarded = delivered after the breaker or alarm took the stream out
	// of service.
	OfferedBatches, AcceptedBatches, ShedBatches, SampledOutBatches, DiscardedBatches int64
	// BitsSeen is the total number of bits the monitor consumed;
	// PartialBits is the length of the in-flight sequence dropped at
	// detach (its bits are inside BitsSeen but produced no report).
	BitsSeen    int64
	PartialBits int
	// Online anomaly tracking (Config.Online): OnlineScore is the stream's
	// final exponentially-decayed anomaly score, OnlineAlarmed whether the
	// tracker's confirmation latch fired, and OnlineDetectedAt the
	// tracker-stream bit index at which it fired (−1 if it never did, or
	// if online tracking is disabled). An alarmed tracker affects
	// Condition only under Config.OnlineQuarantine.
	OnlineScore      float64
	OnlineAlarmed    bool
	OnlineDetectedAt int64
	// Events is the bounded incident timeline (quarantines, watchdogs,
	// alarm latch), in the Supervisor's event vocabulary.
	Events []core.Event
}

// Shed reports whether any batch was dropped by load shedding — if so the
// stream's verdicts are no longer comparable to a lossless serial run.
func (r *StreamReport) Shed() bool {
	return r.ShedBatches > 0 || r.SampledOutBatches > 0
}

// computeCondition folds the counters into the Supervisor's Condition
// vocabulary. Precedence mirrors Supervisor.Condition: an open breaker
// dominates (the stream is down), then a latched alarm, then degradation.
func (r *StreamReport) computeCondition() core.Condition {
	switch {
	case r.BreakerTripped:
		return core.SourceFault
	case r.AlarmLatched:
		return core.StatFail
	case r.Quarantined > 0 || r.Retries > 0 || r.Watchdogs > 0 || r.Shed():
		return core.Degraded
	}
	return core.OK
}
