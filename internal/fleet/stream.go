package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hwfast"
	"repro/internal/online"
	"repro/internal/trng"
)

// stageBuf is one bit-sliced stream's double-buffered producer staging
// area: the producer fills one buffer while the shard drains the other.
// It hangs off the Stream behind a pointer so serial pools don't pay its
// 2,304 B on every registration.
type stageBuf struct {
	words [2][stageBatches]uint64
	lens  [2][stageBatches]uint8
}

// Stream is one tenant's handle on the fleet. The producer side (Push,
// PushFault, Detach) is called by the tenant's ingest goroutine; the
// processing side runs on the stream's shard goroutine. One producer
// goroutine per stream — the pool itself may host thousands of streams
// concurrently, but a single stream's pushes must not race each other, or
// batch order (and therefore the verdict sequence) would be undefined.
type Stream struct {
	pool   *Pool
	sh     *shard
	tenant string
	// idx is the stream's position in pool.list.
	//trnglint:guardedby pool.mu
	idx int

	// pushMu orders the producer-side check-then-enqueue against Detach:
	// once Detach has enqueued the detach item (under this mutex, after
	// setting detached), no word or fault item for this stream can follow
	// it into the queue. Without the ordering, a push that passed the
	// detached check could land behind the detach item — processed against
	// a finalized stream — or behind the shutdown stop item, blocking the
	// producer forever on a queue nothing drains. The bit-sliced staging
	// fast path deliberately does NOT take it (see stage); every flush and
	// control operation does. It sits with the fields the Push fast path
	// touches (detached, staging cursor, stamp) so one cold stream costs
	// one producer-side cache line, not four.
	pushMu   sync.Mutex
	detached atomic.Bool
	// stCnt packs the staging generation (which of the two buffers the
	// producer fills, bits 16+) and the published batch count (low 16
	// bits). The producer's lock-free fast path publishes a staged batch
	// with a single release store of count+1; flushes (under pushMu) reset
	// the count and flip the generation. Go atomics are sequentially
	// consistent, which is what makes the Detach race resolvable: a push
	// whose post-publish detached check still reads false is ordered
	// before Detach's flush capture, so the flush provably includes it; a
	// push that reads true resolves against drained.
	stCnt atomic.Uint32
	// drained records, under pushMu, the stCnt word (generation and count)
	// the most recent flush captured. A push that raced Detach was carried
	// out by Detach's flush exactly when drained equals the word its own
	// publish stored: a capture before the publish holds a smaller count
	// or, if it flipped the generation, the other generation.
	//trnglint:guardedby pushMu
	drained uint32
	// stamp caches cfg.StreamDeadline > 0 so the push fast path decides
	// whether to take a clock reading without chasing pool.cfg.
	stamp    bool
	lastPush atomic.Int64 // Clock() stamp; only when StreamDeadline > 0

	// Bit-sliced producer staging (Config.BitSliced pools only; credits
	// and stg are nil otherwise — the staging buffers are 2,304 B, so
	// serial pools must not carry them in every Stream). Push accumulates
	// batches and hands them to the shard stageBatches at a time as one
	// queue item carrying only the buffer index — the shard reads the
	// batches in place and returns the single credit, so at most one
	// flushed buffer is ever in flight and the producer never overwrites
	// a buffer the shard still reads. The two pointers live here, in the
	// same cache line as the staging cursor the fast path reads anyway.
	credits chan struct{}
	stg     *stageBuf

	// Producer-side accounting: atomics so Detach/finalize and the stall
	// sweeper can read them from other goroutines.
	offered    atomic.Int64
	shedCount  atomic.Int64
	sampledOut atomic.Int64
	congested  atomic.Int64 // congested-offer counter driving DegradeSample

	detachOnce sync.Once
	done       chan struct{} // closed by finalize; publishes final
	final      StreamReport

	// Shard-side state: owned by the shard goroutine until done closes
	// (the channel close publishes it to Detach callers).
	mon              *core.Monitor
	policy           *core.AlarmPolicy
	acceptedBatches  int64
	discardedBatches int64
	sequences        int
	seqPass, seqFail int
	quarantined      int
	retries          int
	watchdogs        int
	faults           int
	quarantineRun    int // consecutive quarantines since the last accepted sequence
	faultRun         int // consecutive hard faults since the last accepted sequence
	breakerOpen      bool
	latched          bool
	events           []core.Event

	// Online anomaly tracking (Config.Online; nil otherwise). The tracker
	// is fed exactly the bits the monitor consumes, in consumption order —
	// inside feedMonitor on the serial path and for a sequence's final
	// tile, and directly from the tile loop for mid-sequence tiles — so
	// its trajectory is byte-identical between the two. alarmCounted makes the aggregate
	// alarm counter fire once per stream.
	tracker      *online.Tracker
	alarmCounted bool

	// Bit-sliced shard-side state: the stream's lane group and lane index
	// while sliced (grp nil on the serial path), its lane fifo (2,352 B,
	// bit-sliced pools only, recycled through Pool.fifos at finalize), and
	// a reusable scratch for the sliceable-state hand-back.
	grp  *laneGroup
	lane int
	fifo *laneFifo
	ws   hwfast.WordStats

	tobs tenantObs // opt-in per-tenant handles; zero value is all no-ops
}

// Tenant names the stream.
func (s *Stream) Tenant() string { return s.tenant }

// Push offers one batch of up to 64 bits (bit i of w is the i-th bit
// chronologically) to the stream's shard. What happens when the shard's
// bounded queue is full depends on the pool's ShedPolicy: Block applies
// backpressure, ShedNewest returns ErrShed, DegradeSample returns
// ErrSampledOut for all but one in SampleEvery congested offers. The call
// is allocation-free on every path but the argument-error one.
//
//trnglint:hotpath
func (s *Stream) Push(w uint64, nbits int) error {
	if nbits < 1 || nbits > 64 {
		return fmt.Errorf("fleet: word size %d out of range [1,64]", nbits) //trnglint:alloc argument-validation error path, never taken at line rate
	}
	if s.credits != nil {
		if nbits != 64 {
			w &= lowMask(nbits)
		}
		one := [1]uint64{w}
		return s.stage(one[:], uint8(nbits))
	}
	s.pushMu.Lock()
	err := s.pushSerial(w, nbits)
	s.pushMu.Unlock()
	return err
}

// pushSerial is Push's serial branch: one queue item per word, offered
// under the pool's shed policy. It is a separate function so the hot path
// schedules no defer — the caller brackets it with an explicit
// Lock/Unlock pair.
//
//trnglint:holds pushMu
func (s *Stream) pushSerial(w uint64, nbits int) error {
	if s.detached.Load() {
		return ErrDetached
	}
	if s.stamp {
		s.lastPush.Store(s.pool.cfg.Clock()) //trnglint:alloc injected clock, one indirect call per stamped push
	}
	s.offered.Add(1)
	return s.offer(item{s: s, w: w, nbits: uint8(nbits), kind: itemWord}, 1, s.pool.cfg.Policy)
}

// PushWords offers a run of full 64-bit batches, equivalent to calling
// Push(w, 64) for each word in order but with the producer-side cost
// amortized across the run: on a bit-sliced pool the whole run is written
// into the staging buffer with a single atomic publish per staging fill
// instead of one per word, which is most of a word push's cost. Returns
// the first error; an error means that word and every word after it were
// not delivered (earlier words in the run were).
//
//trnglint:hotpath
func (s *Stream) PushWords(ws []uint64) error {
	if s.credits == nil {
		for _, w := range ws {
			if err := s.Push(w, 64); err != nil {
				return err
			}
		}
		return nil
	}
	return s.stage(ws, 64)
}

// stage is the bit-sliced producer path behind Push and PushWords: it
// writes ws (nbits bits each) into the staging buffer lock-free, and a
// full stage flushes as one queue item, amortizing the handoff across
// stageBatches batches. Each fill is plain slot writes, then one
// sequentially-consistent stCnt store covering all of them, then the
// detached re-check — no mutex, no per-batch offered add (flushes account
// for every staged batch, kept or dropped). Only the stream's single
// producer goroutine writes the slots and the publish word; Detach's
// flush reads them through the stCnt acquire/release edge. A fill whose
// re-check still reads false is ordered before Detach's flush capture, so
// it is provably drained; one that reads true resolves against drained.
func (s *Stream) stage(ws []uint64, nbits uint8) error {
	for len(ws) > 0 {
		if s.detached.Load() {
			return ErrDetached
		}
		v := s.stCnt.Load()
		idx, n := v>>16, int(v&0xffff)
		k := min(stageBatches-n, len(ws))
		copy(s.stg.words[idx][n:n+k], ws)
		lens := s.stg.lens[idx][n : n+k]
		for i := range lens {
			lens[i] = nbits
		}
		if s.stamp {
			s.lastPush.Store(s.pool.cfg.Clock()) //trnglint:alloc injected clock, one indirect call per stamped fill
		}
		end := v + uint32(k)
		s.stCnt.Store(end)
		ws = ws[k:]
		if n+k < stageBatches && !s.detached.Load() {
			return nil // the stage has room left, so this fill took the whole run
		}
		// Taking pushMu waits out a racing Detach body; detached never
		// clears, so a raced fill resolves here and never flushes.
		s.pushMu.Lock()
		if s.detached.Load() {
			// Delivered only if Detach's flush captured this very publish
			// and the run ended with it; an orphaned slot is never read.
			carried := len(ws) == 0 && s.drained == end
			s.pushMu.Unlock()
			if carried {
				return nil
			}
			return ErrDetached
		}
		err := s.flushStaged(s.pool.cfg.Policy) //trnglint:alloc amortized handoff: one flush per staged buffer, blocking is the backpressure policy
		s.pushMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// PushFault delivers a source fault event to the stream, in order with its
// batches. Fault events are control plane: they are never shed, they take
// backpressure for their queue slot regardless of policy.
func (s *Stream) PushFault(err error) error {
	if err == nil {
		return nil
	}
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	if s.detached.Load() {
		return ErrDetached
	}
	if s.stamp {
		s.lastPush.Store(s.pool.cfg.Clock())
	}
	if s.credits != nil {
		s.flushStaged(Block) // staged batches precede the fault, in order
	}
	s.sh.queue <- item{s: s, err: err, kind: itemFault}
	return nil
}

// flushStaged hands the staged batches to the shard as one queue item,
// under pushMu, offered under policy: control flushes (fault and detach)
// pass Block and always wait for their slot; a data flush passes the
// pool's shed policy, so a congested stage is shed or sampled out whole,
// accounted per batch.
//
//trnglint:holds pushMu
func (s *Stream) flushStaged(policy ShedPolicy) error {
	v := s.stCnt.Load()
	s.drained = v
	idx, cnt := v>>16, v&0xffff
	if cnt == 0 {
		return nil
	}
	s.offered.Add(int64(cnt))
	if err := s.offer(item{s: s, kind: itemBatch, w: uint64(idx)<<16 | uint64(cnt)}, int64(cnt), policy); err != nil {
		// The buffer was never handed off, so the generation stays put and
		// only the published count resets.
		s.stCnt.Store(idx << 16)
		return err
	}
	// The buffer is in flight: flip the generation so the producer stages
	// into the other one until the credit returns.
	s.stCnt.Store((idx ^ 1) << 16)
	return nil
}

// offer enqueues it, which carries n batches, under policy: Block waits
// for the slot, ShedNewest drops a congested offer with ErrShed, and
// DegradeSample drops all but one in SampleEvery congested offers with
// ErrSampledOut. A drop is accounted per batch. On a bit-sliced stream
// the staging credit is taken before the queue slot; the caller resets
// the staging count after a drop.
//
//trnglint:holds pushMu
func (s *Stream) offer(it item, n int64, policy ShedPolicy) error {
	if policy != Block && s.tryEnqueue(it) {
		return nil
	}
	fo := &s.pool.fobs
	switch policy {
	case ShedNewest:
		s.shedCount.Add(n)
		fo.batchesShed.Add(uint64(n))
		s.tobs.dropped.Add(uint64(n))
		return ErrShed
	case DegradeSample:
		if c := s.congested.Add(1); (c-1)%int64(s.pool.cfg.SampleEvery) != 0 {
			s.sampledOut.Add(n)
			fo.batchesSampledOut.Add(uint64(n))
			s.tobs.dropped.Add(uint64(n))
			return ErrSampledOut
		}
		// The sampled offer takes backpressure for its slot.
	}
	if s.credits != nil {
		<-s.credits //trnglint:alloc staging credit: at most one flushed buffer in flight
	}
	s.sh.queue <- it //trnglint:alloc blocking handoff (Block, or the sampled offer) is the backpressure contract
	return nil
}

// tryEnqueue is offer's congestion probe: it takes the staging credit (if
// the stream stages) and then a queue slot without blocking, and reports
// false — the credit returned — when either is unavailable.
func (s *Stream) tryEnqueue(it item) bool {
	if s.credits != nil {
		select { //trnglint:alloc shed policy decides between enqueue and drop
		case <-s.credits:
		default:
			return false
		}
	}
	select { //trnglint:alloc shed policy decides between enqueue and drop
	case s.sh.queue <- it:
		return true
	default:
	}
	if s.credits != nil {
		s.credits <- struct{}{} //trnglint:alloc returns the credit just taken, so it never blocks
	}
	return false
}

// Detach removes the stream from the fleet: queued batches are still
// processed (drain, not discard), the monitor's partial results are
// flushed into the returned StreamReport, and the monitor returns to the
// pool for the next tenant. Detach is idempotent and safe to call
// concurrently with Shutdown and with the stream's own producer: a Push
// or PushFault racing the detach either lands before the detach item
// (drained normally) or fails with ErrDetached — pushMu makes the detach
// item the last item this stream ever enqueues.
func (s *Stream) Detach() StreamReport {
	s.detachOnce.Do(func() {
		s.pushMu.Lock()
		// detached is set before the flush captures stCnt: sequential
		// consistency then guarantees the capture includes every push
		// whose post-publish detached check read false, which is what
		// lets the lock-free staging path report those as delivered.
		s.detached.Store(true)
		if s.credits != nil {
			s.flushStaged(Block) // drain, not discard: staged batches land first
		}
		s.sh.queue <- item{s: s, kind: itemDetach}
		s.pushMu.Unlock()
	})
	<-s.done
	return s.final
}

// ---- shard-side processing (shard goroutine only) ----

// ingestWord feeds one accepted batch into the monitor: the batch-outcome
// accounting (discard when out of service, accept otherwise) followed by
// the shared feed loop.
func (s *Stream) ingestWord(w uint64, nbits int) {
	fo := &s.pool.fobs
	if s.breakerOpen || s.latched {
		s.discardedBatches++
		fo.batchesDiscarded.Inc()
		return
	}
	s.acceptedBatches++
	fo.batchesAccepted.Inc()
	s.feedMonitor(w, nbits)
}

// feedMonitor runs the monitor feed loop for one batch (or batch
// fragment), splitting it at sequence boundaries and handling
// verified-readout mismatches with the Supervisor's quarantine semantics.
// No batch accounting happens here — it is the shared core of ingestWord
// and of the bit-sliced final tile and eviction drain, which account at
// consumption instead (mid-sequence tiles bypass it: laneGroup.step feeds
// whole bursts through Monitor.FeedWords). It reports whether it stopped
// early, dropping the remaining bits (breaker opened on an evaluation
// error, or the alarm latched): on a tile-aligned feed nothing is ever
// left unconsumed, but the flag tells the caller the serial contract for
// buffered bits of a batch that straddles the feed.
func (s *Stream) feedMonitor(w uint64, nbits int) (stopped bool) {
	fo := &s.pool.fobs
	for nbits > 0 {
		take := s.pool.cfg.Design.N - s.mon.SequenceBits()
		if take > nbits {
			take = nbits
		}
		// The tracker sees the chunk the moment it is clocked — even a
		// chunk whose evaluation errors was clocked into the hardware, and
		// a quarantine discards bits only from the monitor's sequence, not
		// from the stream the tracker scores.
		if s.tracker != nil {
			s.tracker.Push(w, take)
		}
		var rep *core.SequenceReport
		var err error
		if s.pool.cfg.VerifyReadout {
			rep, err = s.mon.FeedWordVerified(w, take) //trnglint:alloc core.Monitor feed: allocation-free once the report ring is full (TestPushZeroAllocAcrossBoundary)
		} else {
			rep, err = s.mon.FeedWord(w, take) //trnglint:alloc core.Monitor feed: allocation-free once the report ring is full (TestPushZeroAllocAcrossBoundary)
		}
		// The chunk never straddles a boundary, so on any error the whole
		// chunk was still clocked into the hardware; advance past it.
		w >>= uint(take)
		nbits -= take
		if err != nil {
			if errors.Is(err, core.ErrReadoutMismatch) {
				// Counter transmission was corrupted: discard the sequence,
				// never trust the verdict. The remaining bits of the batch
				// open the next sequence.
				s.quarantine("register readout mismatch") //trnglint:alloc incident path: readout mismatch
				s.maybeTrip()                             //trnglint:alloc incident path: readout mismatch
				continue
			}
			// Internal evaluation error — not a data defect. Quarantine
			// whatever is in flight and take the stream out of service.
			s.quarantine("internal evaluation error") //trnglint:alloc incident path: evaluation error
			if !s.breakerOpen {
				s.breakerOpen = true
				fo.breakerTrips.Inc()
				s.event(core.EventQuarantine, "breaker open: evaluation error: "+err.Error()) //trnglint:alloc incident path: breaker trips at most once per stream
			}
			return true
		}
		if rep != nil {
			s.acceptReport(rep) //trnglint:alloc sequence-boundary verdict fold, amortized over Design.N bits
			if s.latched {
				return true
			}
		}
	}
	return false
}

// acceptReport folds one accepted sequence verdict into the stream.
func (s *Stream) acceptReport(rep *core.SequenceReport) {
	fo := &s.pool.fobs
	s.quarantineRun = 0
	s.faultRun = 0
	s.sequences++
	if rep.Report.Pass() {
		s.seqPass++
		fo.seqPass.Inc()
		s.tobs.pass.Inc()
	} else {
		s.seqFail++
		fo.seqFail.Inc()
		s.tobs.fail.Inc()
	}
	if s.policy != nil && s.policy.Observe(rep) && !s.latched {
		s.latched = true
		fo.alarmLatches.Inc()
		s.event(core.EventAlarmLatched, "alarm policy latched: stream out of service")
	}
	if s.tracker == nil {
		return
	}
	// Online anomaly scoring is folded in at the sequence boundary — the
	// one point both ingest paths share — so gauges, counters and the
	// optional quarantine land at identical positions on the serial and
	// bit-sliced paths. In observation mode (OnlineQuarantine false) this
	// touches only observability state, never the stream's service.
	s.tobs.anomaly.Set(s.tracker.Score())
	if !s.tracker.Alarmed() {
		return
	}
	if !s.alarmCounted {
		s.alarmCounted = true
		fo.onlineAlarms.Inc()
	}
	if s.pool.cfg.OnlineQuarantine && !s.latched {
		s.latched = true
		fo.alarmLatches.Inc()
		s.event(core.EventAlarmLatched, fmt.Sprintf(
			"online anomaly score %.2f confirmed at bit %d: stream out of service",
			s.tracker.Score(), s.tracker.DetectedAt()))
	}
}

// applyFault handles one fault event with the Supervisor's fault
// vocabulary: transient faults are absorbed and counted; watchdog and
// other hard faults quarantine the in-flight sequence and feed the
// circuit breaker.
func (s *Stream) applyFault(err error) {
	fo := &s.pool.fobs
	if s.breakerOpen || s.latched {
		// The stream is already out of service; a further fault changes
		// nothing. (Not a discarded *batch* — fault events are control
		// plane and stay out of the batch accounting identity.)
		return
	}
	s.faults++
	if errors.Is(err, trng.ErrTransient) {
		s.retries++
		fo.faultsTransient.Inc()
		return
	}
	if errors.Is(err, core.ErrWatchdog) {
		s.watchdogs++
		fo.faultsWatchdog.Inc()
		s.event(core.EventWatchdog, "stream missed its push deadline")
	} else {
		fo.faultsHard.Inc()
	}
	s.faultRun++
	s.quarantine("source fault")
	s.maybeTrip()
}

// quarantine discards the in-flight sequence, if any bits are at risk
// (same boundary exemption as the Supervisor).
func (s *Stream) quarantine(detail string) {
	if !s.mon.QuarantineInFlight() {
		return
	}
	s.quarantined++
	s.quarantineRun++
	s.pool.fobs.quarantines.Inc()
	s.tobs.quarantines.Inc()
	s.event(core.EventQuarantine, detail)
}

// maybeTrip opens the circuit breaker after QuarantineLimit consecutive
// quarantines or hard faults with no accepted sequence in between — the
// stream is not degraded at that point, it is down, and keeping it out of
// service is what protects the rest of the shard.
func (s *Stream) maybeTrip() {
	lim := s.pool.cfg.QuarantineLimit
	if lim <= 0 || s.breakerOpen {
		return
	}
	if s.quarantineRun >= lim || s.faultRun >= lim {
		s.breakerOpen = true
		s.pool.fobs.breakerTrips.Inc()
		s.event(core.EventQuarantine, "circuit breaker open: stream out of service")
	}
}

// event appends one incident to the bounded per-stream timeline and
// mirrors it into the attached registry.
func (s *Stream) event(kind core.EventKind, detail string) {
	if len(s.events) < maxStreamEvents {
		s.events = append(s.events, core.Event{
			Kind:   kind,
			Bit:    s.mon.BitsSeen(),
			Seq:    s.sequences,
			Detail: detail,
		})
	}
	if reg := s.pool.fobs.reg; reg != nil {
		s.pool.fobs.eventCounter(kind).Inc()
		reg.Emit("fleet."+kind.String(), s.mon.BitsSeen(), s.tenant+": "+detail)
	}
}

// finalize flushes the stream's results into its final report, recycles
// the monitor, unlinks the stream and publishes the report by closing
// done. Runs on the shard goroutine (or ReplaySerial's caller).
func (s *Stream) finalize() {
	r := StreamReport{
		Tenant:            s.tenant,
		Reports:           s.mon.TakeHistory(),
		Sequences:         s.sequences,
		Passed:            s.seqPass,
		Failed:            s.seqFail,
		Quarantined:       s.quarantined,
		Retries:           s.retries,
		Watchdogs:         s.watchdogs,
		Faults:            s.faults,
		BreakerTripped:    s.breakerOpen,
		AlarmLatched:      s.latched,
		OfferedBatches:    s.offered.Load(),
		AcceptedBatches:   s.acceptedBatches,
		ShedBatches:       s.shedCount.Load(),
		SampledOutBatches: s.sampledOut.Load(),
		DiscardedBatches:  s.discardedBatches,
		BitsSeen:          s.mon.BitsSeen(),
		PartialBits:       s.mon.SequenceBits(),
		OnlineDetectedAt:  -1,
		Events:            s.events,
	}
	if s.tracker != nil {
		r.OnlineScore = s.tracker.Score()
		r.OnlineAlarmed = s.tracker.Alarmed()
		r.OnlineDetectedAt = s.tracker.DetectedAt()
		s.tobs.anomaly.Set(r.OnlineScore)
		s.pool.recycleTracker(s.tracker)
		s.tracker = nil
	}
	r.Condition = r.computeCondition()
	s.final = r
	s.events = nil
	fo := &s.pool.fobs
	fo.conditionCounter(r.Condition).Inc()
	s.tobs.condition.Set(float64(r.Condition))
	s.pool.recycleMonitor(s.mon)
	s.mon = nil
	if s.fifo != nil {
		// Detach evicted the stream first, so no lane holds the fifo.
		s.pool.recycleFifo(s.fifo)
		s.fifo = nil
	}
	s.policy = nil
	s.pool.removeStream(s)
	close(s.done)
}
