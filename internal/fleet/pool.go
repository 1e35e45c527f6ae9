package fleet

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/hwfast"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/sweval"
)

// Pool multiplexes many concurrent TRNG streams over a fixed set of shard
// goroutines and a recycled set of core monitors. All methods are safe for
// concurrent use; each Stream additionally has its own contract (one
// producer goroutine per stream).
type Pool struct {
	cfg Config
	// skipFeed marks a bit-sliced design with no residual engines
	// (templates, serial): sliced streams' monitors have nothing to clock
	// between sequence boundaries, so non-final tiles skip the per-lane
	// monitor feed and the boundary hand-back fast-forwards the position.
	skipFeed bool
	// cv is the one shared critical-value table: deriving it is the
	// expensive part of monitor construction, and it is read-only after
	// construction, so every monitor of the fleet shares it race-free.
	cv     *sweval.CriticalValues
	shards []*shard
	fobs   fleetObs

	// monitors recycles detached streams' monitors: acquire pops a fully
	// Reset monitor; a cold pool builds one. Steady-state churn therefore
	// allocates nothing but the Stream handle itself.
	monitors sync.Pool
	// trackers recycles detached streams' online anomaly trackers under
	// the same discipline (Config.Online pools only).
	trackers sync.Pool
	// fifos recycles detached streams' lane fifos (bit-sliced pools
	// only). A fifo goes back only at finalize, after the detach eviction
	// has drained it and unlinked its lane; it is touched only on the
	// shard goroutine, so no producer can still reach it. The staging
	// buffer is not recycled: Stream.stage writes its slots after its
	// detached check, so a producer racing Detach could write into a
	// buffer already handed to another tenant.
	fifos sync.Pool

	mu sync.Mutex
	//trnglint:guardedby mu
	closed bool
	// list holds the active streams; swap-removed via Stream.idx.
	//trnglint:guardedby mu
	list []*Stream
	//trnglint:guardedby mu
	byTenant map[string]*Stream
	//trnglint:guardedby mu
	nextShard int
}

// New builds the pool, derives the shared critical values, and starts the
// shard workers.
func New(cfg Config) (*Pool, error) { return newPool(cfg, true) }

// newPool is New with the shard workers optionally not started —
// ReplaySerial runs its stream synchronously on the caller's goroutine
// and must not race a worker for it.
func newPool(cfg Config, start bool) (*Pool, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cv, err := sweval.NewCriticalValues(cfg.Design, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:      cfg,
		cv:       cv,
		byTenant: make(map[string]*Stream),
	}
	if cfg.BitSliced {
		st, err := hwfast.New(cfg.Design.N, cfg.Design.Tests, cfg.Design.Params)
		if err != nil {
			return nil, err
		}
		p.skipFeed = !st.Residual()
	}
	p.fobs.init(cfg.Obs, cfg.Shards)
	p.shards = make([]*shard, cfg.Shards)
	for i := range p.shards {
		sh := &shard{
			id:    i,
			pool:  p,
			queue: make(chan item, cfg.QueueDepth),
			done:  make(chan struct{}),
		}
		p.shards[i] = sh
		if start {
			go sh.loop()
		}
	}
	return p, nil
}

// Config returns the normalized pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// Active reports the number of currently registered streams.
func (p *Pool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.list)
}

// Register admits one tenant and returns its stream handle. Admission is
// controlled: the typed errors ErrFleetFull, ErrDuplicateTenant and
// ErrShuttingDown reject over-capacity, duplicate and post-shutdown
// registrations. Streams are assigned to shards round-robin.
func (p *Pool) Register(tenant string) (*Stream, error) {
	if tenant == "" {
		return nil, fmt.Errorf("fleet: empty tenant name")
	}
	// Acquire the monitor outside the pool lock: on a cold pool this
	// builds hardware state and is the slow part of admission. A rejected
	// admission returns the (already clean) monitor to the recycler.
	mon, err := p.acquireMonitor()
	if err != nil {
		return nil, err
	}
	// Config keeps the user's sentinel (negative = keep everything) so
	// Config() round-trips losslessly; translate to Monitor semantics
	// (0 = keep everything) only here.
	if p.cfg.KeepReports < 0 {
		mon.KeepHistory = 0
	} else {
		mon.KeepHistory = p.cfg.KeepReports
	}
	var policy *core.AlarmPolicy
	if p.cfg.AlarmThreshold > 0 {
		policy, err = core.NewAlarmPolicy(p.cfg.AlarmThreshold)
		if err != nil {
			p.monitors.Put(mon)
			return nil, err
		}
	}
	var tracker *online.Tracker
	if p.cfg.Online != nil {
		tracker, err = p.acquireTracker()
		if err != nil {
			p.monitors.Put(mon)
			return nil, err
		}
	}
	s := &Stream{
		pool:    p,
		tenant:  tenant,
		mon:     mon,
		policy:  policy,
		tracker: tracker,
		stamp:   p.cfg.StreamDeadline > 0,
		done:    make(chan struct{}),
	}
	if p.cfg.BitSliced {
		s.credits = make(chan struct{}, 1)
		s.credits <- struct{}{}
		s.stg = &stageBuf{}
		s.fifo = p.acquireFifo()
	}
	if p.cfg.PerTenantObs && p.cfg.Obs != nil {
		s.tobs = newTenantObs(p.cfg.Obs, tenant)
	}

	p.mu.Lock()
	var reject error
	var rejected *obs.Counter
	switch {
	case p.closed:
		reject, rejected = ErrShuttingDown, p.fobs.rejectedClosed
	case p.cfg.MaxStreams > 0 && len(p.list) >= p.cfg.MaxStreams:
		reject, rejected = ErrFleetFull, p.fobs.rejectedFull
	default:
		if _, dup := p.byTenant[tenant]; dup {
			reject, rejected = ErrDuplicateTenant, p.fobs.rejectedDup
		}
	}
	if reject != nil {
		p.mu.Unlock()
		rejected.Inc()
		p.monitors.Put(mon)
		if tracker != nil {
			p.trackers.Put(tracker)
		}
		return nil, reject
	}
	s.sh = p.shards[p.nextShard]
	p.nextShard++
	if p.nextShard == len(p.shards) {
		p.nextShard = 0
	}
	s.idx = len(p.list)
	p.list = append(p.list, s)
	p.byTenant[tenant] = s
	active := len(p.list)
	p.mu.Unlock()

	if p.cfg.StreamDeadline > 0 {
		s.lastPush.Store(p.cfg.Clock())
	}
	p.fobs.admitted.Inc()
	p.fobs.active.Set(float64(active))
	return s, nil
}

// Lookup returns the live stream of a tenant, or nil.
func (p *Pool) Lookup(tenant string) *Stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byTenant[tenant]
}

// Shutdown drains the fleet: every live stream is detached (its queued
// batches are processed first — drain, not discard), every partial result
// is flushed as a StreamReport, and the shard workers stop. The reports
// are sorted by tenant so shutdown output is deterministic regardless of
// shard scheduling. Shutdown is idempotent; concurrent Detach calls are
// safe and simply race to flush the same streams, and producers still
// pushing while Shutdown runs see their last racing pushes either drained
// normally or rejected with ErrDetached — never lost in a stopped queue.
func (p *Pool) Shutdown() []StreamReport {
	p.mu.Lock()
	alreadyClosed := p.closed
	p.closed = true
	streams := append([]*Stream(nil), p.list...)
	p.mu.Unlock()

	reports := make([]StreamReport, 0, len(streams))
	for _, s := range streams {
		reports = append(reports, s.Detach())
	}
	if !alreadyClosed {
		for _, sh := range p.shards {
			sh.queue <- item{kind: itemStop}
			<-sh.done
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Tenant < reports[j].Tenant })
	return reports
}

// SweepStalled injects a watchdog fault into every live stream whose last
// push is older than Config.StreamDeadline — the fleet-level analogue of
// the Supervisor's per-bit watchdog, at per-stream granularity. The
// injection is non-blocking: a stream on a congested shard is skipped this
// sweep and caught by the next one, so the sweeper itself can never stall
// on a full queue. Because the send deliberately stays outside the stream
// mutex (a sweep must never block behind a backpressured producer), a
// sweep item can lose its race with Detach and land behind the detach
// item; the shard's finalized-stream guard drops it and counts it in
// fleet_late_items_dropped_total. Returns the number of streams swept.
// No-op (0) when no deadline is configured.
func (p *Pool) SweepStalled() int {
	if p.cfg.StreamDeadline <= 0 {
		return 0
	}
	now := p.cfg.Clock()
	cutoff := now - p.cfg.StreamDeadline.Nanoseconds()
	p.mu.Lock()
	streams := append([]*Stream(nil), p.list...)
	p.mu.Unlock()
	swept := 0
	for _, s := range streams {
		if s.detached.Load() {
			continue
		}
		last := s.lastPush.Load()
		if last == 0 || last > cutoff {
			continue
		}
		select {
		case s.sh.queue <- item{s: s, err: core.ErrWatchdog, kind: itemFault}:
			// Re-arm so one stall raises one watchdog per deadline window,
			// not one per sweep tick.
			s.lastPush.Store(now)
			swept++
		default:
		}
	}
	return swept
}

// acquireMonitor pops a recycled monitor or builds a fresh one around the
// shared critical values.
func (p *Pool) acquireMonitor() (*core.Monitor, error) {
	if m, ok := p.monitors.Get().(*core.Monitor); ok {
		return m, nil
	}
	return core.NewMonitorWithValues(p.cfg.Design, p.cv)
}

// recycleMonitor resets a detached stream's monitor — every piece of
// per-run state, proven by the core cross-contamination regression test —
// and returns it to the pool.
func (p *Pool) recycleMonitor(m *core.Monitor) {
	m.Reset()
	p.monitors.Put(m)
}

// acquireTracker pops a recycled online tracker or builds a fresh one.
// Construction cannot fail on a config the pool accepted (withDefaults
// builds a throwaway tracker as its validity check), but the error is
// propagated anyway rather than papered over.
func (p *Pool) acquireTracker() (*online.Tracker, error) {
	if t, ok := p.trackers.Get().(*online.Tracker); ok {
		return t, nil
	}
	return online.New(p.cfg.Design, *p.cfg.Online)
}

// recycleTracker resets a detached stream's tracker and returns it to the
// pool.
func (p *Pool) recycleTracker(t *online.Tracker) {
	t.Reset()
	p.trackers.Put(t)
}

// acquireFifo pops a recycled lane fifo or allocates an empty one.
func (p *Pool) acquireFifo() *laneFifo {
	if f, ok := p.fifos.Get().(*laneFifo); ok {
		return f
	}
	return &laneFifo{}
}

// recycleFifo returns a finalized stream's lane fifo to the pool. The
// detach drain has popped every batch, so only the ring position is left
// to rewind; a fifo that still holds bits is dropped, not recycled.
func (p *Pool) recycleFifo(f *laneFifo) {
	if f.n != 0 || f.bits != 0 || f.cursor != 0 || f.ragged != 0 {
		return
	}
	f.head, f.tail = 0, 0
	p.fifos.Put(f)
}

// removeStream unlinks a finalized stream (shard goroutine only).
func (p *Pool) removeStream(s *Stream) {
	p.mu.Lock()
	if s.idx >= 0 && s.idx < len(p.list) && p.list[s.idx] == s {
		last := len(p.list) - 1
		p.list[s.idx] = p.list[last]
		p.list[s.idx].idx = s.idx
		p.list[last] = nil
		p.list = p.list[:last]
		delete(p.byTenant, s.tenant)
	}
	active := len(p.list)
	p.mu.Unlock()
	p.fobs.active.Set(float64(active))
	p.fobs.detached.Inc()
}
