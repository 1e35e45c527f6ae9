package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/trng"
)

// ErrWatchdog is the hard fault the per-bit watchdog raises when a source
// misses its bit deadline: the bit never arrived, so no retry budget
// helps — the supervisor quarantines the sequence and fails over.
var ErrWatchdog = errors.New("core: watchdog: source missed its bit deadline")

// Condition classifies the supervisor's operational verdict. Statistical
// failure and operational failure are deliberately distinct: a latched
// alarm means the monitor *worked* (it caught a bad bit stream), while a
// source fault means the monitor could not do its job at all. Conflating
// the two is exactly the failure mode AIS-31-style retest semantics warn
// about.
type Condition int

const (
	// OK: the run completed with no operational faults and no latched
	// statistical alarm.
	OK Condition = iota
	// Degraded: the run completed, but only by absorbing operational
	// faults — retried reads and/or quarantined sequences.
	Degraded
	// FailedOver: the run completed on the standby source after the
	// primary was lost.
	FailedOver
	// StatFail: the alarm policy latched on consecutive statistical
	// failures; the TRNG was taken out of service.
	StatFail
	// SourceFault: an unrecoverable source failure with no standby left;
	// the run aborted early with partial results.
	SourceFault
)

// String returns the condition's report label.
func (c Condition) String() string {
	switch c {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	case FailedOver:
		return "failed-over"
	case StatFail:
		return "stat-fail"
	case SourceFault:
		return "source-fault"
	}
	return fmt.Sprintf("condition(%d)", int(c))
}

// EventKind labels one entry of the supervisor's operational timeline.
type EventKind int

const (
	// EventQuarantine: an in-flight sequence was discarded and the
	// hardware reset instead of evaluating corrupt state.
	EventQuarantine EventKind = iota
	// EventWatchdog: a source read missed the bit deadline.
	EventWatchdog
	// EventFailover: the supervisor switched to the standby source.
	EventFailover
	// EventAlarmLatched: the alarm policy latched; the run stopped.
	EventAlarmLatched
)

// String returns the event kind's report label.
func (k EventKind) String() string {
	switch k {
	case EventQuarantine:
		return "quarantine"
	case EventWatchdog:
		return "watchdog"
	case EventFailover:
		return "failover"
	case EventAlarmLatched:
		return "alarm-latched"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one operational incident, stamped with the monitor's absolute
// bit position and sequence index at the time.
type Event struct {
	Kind   EventKind
	Bit    int64
	Seq    int
	Detail string
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("[bit %d, seq %d] %s: %s", e.Bit, e.Seq, e.Kind, e.Detail)
}

// DefaultMaxRetries is the per-bit transient retry budget when
// SupervisorConfig.MaxRetries is zero.
const DefaultMaxRetries = 3

// DefaultQuarantineLimit is the consecutive-quarantine circuit breaker
// when SupervisorConfig.QuarantineLimit is zero: a monitor that cannot
// accept a single sequence between quarantines is not degraded, it is
// down, and Run must return rather than spin.
const DefaultQuarantineLimit = 16

// SupervisorConfig tunes the supervision layer.
type SupervisorConfig struct {
	// MaxRetries is the per-bit retry budget for transient read faults
	// (errors wrapping trng.ErrTransient). 0 means DefaultMaxRetries;
	// negative disables retries.
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling per attempt.
	// 0 retries immediately.
	Backoff time.Duration
	// BitDeadline arms the watchdog: a ReadBit that takes longer is
	// declared a stall (a hard fault — quarantine, then failover). 0
	// disables the watchdog and reads are performed inline.
	BitDeadline time.Duration
	// VerifyReadout runs the software evaluation twice per sequence and
	// quarantines the sequence when the passes disagree — the double-read
	// defense against corrupted counter transmission.
	VerifyReadout bool
	// QuarantineLimit aborts the run (Condition SourceFault) after this
	// many consecutive quarantines with no accepted sequence in between.
	// 0 means DefaultQuarantineLimit; negative disables the breaker.
	QuarantineLimit int
	// Policy, if set, folds every accepted report into the alarm policy;
	// a latch stops the run with Condition StatFail.
	Policy *AlarmPolicy
	// Online, if set, runs a streaming anomaly tracker (internal/online)
	// over every bit the monitor accepts and latches the statistical
	// alarm — same StatFail verdict, same EventAlarmLatched timeline
	// entry as a Policy latch — as soon as the score trajectory confirms
	// a drift, without waiting for the sequence boundary. Zero fields
	// select defaults derived from the monitored design (window = N).
	Online *online.Config
	// Sleep is the backoff clock, replaceable in tests. nil means
	// time.Sleep.
	Sleep func(time.Duration)
}

// SupervisorReport is the outcome of one supervised run: the accepted
// sequence reports plus the operational verdict and incident timeline.
type SupervisorReport struct {
	// Reports are the sequence reports that were accepted (evaluated on
	// trusted state), valid for the window Monitor.KeepHistory states.
	// Quarantined sequences do not appear.
	Reports []SequenceReport
	// Condition is the overall verdict; see the Condition constants.
	Condition Condition
	// Quarantined counts sequences discarded without evaluation.
	Quarantined int
	// Retries counts transient read faults absorbed by retrying.
	Retries int
	// FailoverBit is the absolute bit position of the failover, or -1.
	FailoverBit int64
	// ActiveSource names the source that served the final bits.
	ActiveSource string
	// Events is the incident timeline (quarantines, watchdog trips,
	// failover, alarm latch). Retries are counted, not logged.
	Events []Event
	// OnlineScore is the streaming anomaly score at the end of the run
	// (0 when online tracking is disabled or the window never filled).
	OnlineScore float64
	// OnlineDetectedAt is the absolute bit position at which the online
	// tracker's alarm latched, or -1 (also -1 when tracking is disabled).
	OnlineDetectedAt int64
}

// Supervisor wraps a Monitor with the operational fault handling a
// deployed on-the-fly monitor needs: retry-with-backoff for transient
// source errors, a per-bit watchdog for stalls, quarantine of sequences
// touched by faults (the hardware is reset rather than evaluated on
// corrupt state), failover to a standby source, verified counter readout,
// and AIS-31-style alarm integration with distinct operational and
// statistical verdicts.
//
// A Supervisor is not safe for concurrent use; the watchdog's reader
// goroutine is an implementation detail and never touches the monitor.
type Supervisor struct {
	mon     *Monitor
	primary trng.Source
	standby trng.Source
	cfg     SupervisorConfig

	src           trng.Source     // source currently in use
	reader        *srcReader      // watchdog reader for src (nil until needed)
	tracker       *online.Tracker // streaming anomaly tracker (nil unless cfg.Online)
	trackerErr    error           // deferred cfg.Online validation failure
	usingStandby  bool
	latched       bool
	aborted       bool
	quarantined   int
	quarantineRun int // consecutive quarantines since the last accepted sequence
	retries       int
	failoverBit   int64
	events        []Event

	// Observability handles, cached by SetObs; nil-safe no-ops otherwise.
	obs          *obs.Registry
	obsRetries   *obs.Counter
	obsEvents    map[EventKind]*obs.Counter
	obsCondition *obs.Gauge
}

// NewSupervisor supervises mon over the primary source, failing over to
// standby (which may be nil) if the primary is lost.
func NewSupervisor(mon *Monitor, primary, standby trng.Source, cfg SupervisorConfig) *Supervisor {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.QuarantineLimit == 0 {
		cfg.QuarantineLimit = DefaultQuarantineLimit
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	s := &Supervisor{
		mon:         mon,
		primary:     primary,
		standby:     standby,
		cfg:         cfg,
		src:         primary,
		failoverBit: -1,
	}
	if cfg.Online != nil {
		// Validation is deferred to the first Run so this constructor
		// keeps its no-error signature.
		s.tracker, s.trackerErr = online.New(mon.Config(), *cfg.Online)
	}
	return s
}

// OnlineTracker returns the streaming anomaly tracker, or nil when
// SupervisorConfig.Online is unset.
func (s *Supervisor) OnlineTracker() *online.Tracker { return s.tracker }

// Monitor returns the supervised monitor.
func (s *Supervisor) Monitor() *Monitor { return s.mon }

// Reset returns the supervisor — and its monitor — to the just-built
// state so a pooled supervisor can be re-targeted at a fresh stream
// without leaking the previous run's verdicts, incident timeline, breaker
// progress or failover state into the next tenant. The configured sources
// are kept; an armed watchdog reader is abandoned (a fresh one is built on
// demand) and the alarm policy, if any, is cleared.
func (s *Supervisor) Reset() {
	s.mon.Reset()
	if s.cfg.Policy != nil {
		s.cfg.Policy.Reset()
	}
	if s.tracker != nil {
		s.tracker.Reset()
	}
	if s.reader != nil {
		s.reader.abandon()
		s.reader = nil
	}
	s.src = s.primary
	s.usingStandby = false
	s.latched = false
	s.aborted = false
	s.quarantined = 0
	s.quarantineRun = 0
	s.retries = 0
	s.failoverBit = -1
	for i := range s.events {
		s.events[i] = Event{}
	}
	s.events = s.events[:0]
}

// SetObs attaches an observability registry to the supervisor and to its
// monitor: retry and per-kind incident counters, an operational-condition
// gauge (the numeric Condition value), and the incident timeline mirrored
// into the registry's event trace as supervisor.* events. A nil registry
// detaches both layers.
func (s *Supervisor) SetObs(r *obs.Registry) {
	s.obs = r
	s.mon.SetObs(r)
	if r == nil {
		s.obsRetries, s.obsEvents, s.obsCondition = nil, nil, nil
		return
	}
	s.obsRetries = r.Counter("trng_supervisor_retries_total",
		"transient source-read faults absorbed by the retry budget")
	s.obsEvents = make(map[EventKind]*obs.Counter, 4)
	for _, k := range []EventKind{EventQuarantine, EventWatchdog, EventFailover, EventAlarmLatched} {
		s.obsEvents[k] = r.Counter("trng_supervisor_events_total",
			"operational incidents by kind (quarantine, watchdog, failover, alarm latch)",
			"kind", k.String())
	}
	s.obsCondition = r.Gauge("trng_supervisor_condition",
		"current operational verdict: 0 ok, 1 degraded, 2 failed-over, 3 stat-fail, 4 source-fault")
}

// Run supervises the monitor until the requested number of sequences have
// been accepted (quarantined sequences do not count), the alarm policy
// latches, or the source fails unrecoverably. The returned report is never
// nil; the error is non-nil only for an unrecoverable fault (a
// *SourceError, inspectable with errors.As) or an internal evaluation
// error. Run may be called again to continue the same supervised stream.
func (s *Supervisor) Run(sequences int) (*SupervisorReport, error) {
	if s.trackerErr != nil {
		return s.report(nil), fmt.Errorf("core: online tracker: %w", s.trackerErr)
	}
	var accepted []SequenceReport
	for len(accepted) < sequences {
		bit, err := s.readBit()
		if err != nil {
			s.aborted = true
			return s.report(accepted), &SourceError{Bit: s.mon.bitsSeen, Err: err}
		}
		done, err := s.mon.clockBit(bit)
		if err != nil {
			return s.report(accepted), err
		}
		// The online tracker sees every bit the monitor accepted, so a
		// confirmed score excursion latches the statistical alarm
		// mid-sequence — detection does not wait for the boundary. When
		// the latch lands exactly on a boundary bit the completed
		// sequence is still evaluated first, leaving the monitor clean.
		scoreLatched := false
		if s.tracker != nil && !s.latched {
			s.tracker.Push(uint64(bit), 1)
			if s.tracker.Alarmed() {
				s.latched = true
				scoreLatched = true
				s.event(EventAlarmLatched, fmt.Sprintf("online anomaly score %.2f confirmed at bit %d",
					s.tracker.Score(), s.tracker.DetectedAt()))
			}
		}
		if !done {
			if scoreLatched {
				break
			}
			continue
		}
		rep, err := s.mon.completeSequence(s.cfg.VerifyReadout)
		if err != nil {
			if errors.Is(err, ErrReadoutMismatch) {
				s.quarantine("register readout mismatch")
				if scoreLatched {
					break
				}
				if s.cfg.QuarantineLimit > 0 && s.quarantineRun >= s.cfg.QuarantineLimit {
					s.aborted = true
					return s.report(accepted), fmt.Errorf("core: %d consecutive quarantines — readout path unusable: %w",
						s.quarantineRun, ErrReadoutMismatch)
				}
				continue
			}
			return s.report(accepted), err
		}
		s.quarantineRun = 0
		accepted = append(accepted, *rep)
		if s.cfg.Policy != nil && s.cfg.Policy.Observe(rep) && !s.latched {
			s.latched = true
			s.event(EventAlarmLatched, fmt.Sprintf("after %d consecutive failures", s.cfg.Policy.Threshold))
			break
		}
		if scoreLatched {
			break
		}
	}
	return s.report(accepted), nil
}

// readBit obtains one bit from the active source, absorbing transient
// faults with the retry budget and surviving hard faults by failover.
// A hard fault (retry budget exhausted, watchdog trip, or non-transient
// error) quarantines the in-flight sequence first: its earlier bits may
// already be suspect, and the paper's always-on hardware makes a discarded
// sequence cheap — the next one starts on the very next bit.
func (s *Supervisor) readBit() (byte, error) {
	for {
		var lastErr error
		attempts := 0
		for {
			bit, err := s.readOnce()
			if err == nil {
				return bit, nil
			}
			lastErr = err
			if !errors.Is(err, trng.ErrTransient) || attempts >= s.cfg.MaxRetries {
				break
			}
			attempts++
			s.retries++
			s.obsRetries.Inc()
			if s.cfg.Backoff > 0 {
				s.cfg.Sleep(s.cfg.Backoff << uint(attempts-1))
			}
		}
		s.quarantine(fmt.Sprintf("source fault: %v", lastErr))
		if s.standby != nil && !s.usingStandby {
			s.failover(lastErr)
			continue
		}
		return 0, lastErr
	}
}

// readOnce performs a single read, under the watchdog when armed.
func (s *Supervisor) readOnce() (byte, error) {
	if s.cfg.BitDeadline <= 0 {
		return s.src.ReadBit()
	}
	if s.reader == nil {
		s.reader = newSrcReader(s.src)
	}
	s.reader.req <- struct{}{}
	//trnglint:allow determinism the per-bit watchdog is deliberately wall-clock: it exists to bound a stalled hardware read, and it only fires on the fault paths the differential suites never take
	timer := time.NewTimer(s.cfg.BitDeadline)
	defer timer.Stop()
	select {
	case r := <-s.reader.res:
		return r.bit, r.err
	case <-timer.C:
		// Abandon the hung reader; a failover gets a fresh one. The
		// goroutine parks on its buffered result channel and exits if the
		// blocked read ever returns.
		s.reader.abandon()
		s.reader = nil
		s.event(EventWatchdog, fmt.Sprintf("no bit within %v from %s", s.cfg.BitDeadline, s.src.Name()))
		return 0, ErrWatchdog
	}
}

// quarantine discards the in-flight sequence, if any bits are at risk.
func (s *Supervisor) quarantine(detail string) {
	if !s.mon.QuarantineInFlight() {
		return // fault landed exactly on a sequence boundary: nothing at risk
	}
	s.quarantined++
	s.quarantineRun++
	s.event(EventQuarantine, detail)
}

// failover switches the supervised stream to the standby source.
func (s *Supervisor) failover(cause error) {
	s.usingStandby = true
	s.src = s.standby
	s.reader = nil
	s.failoverBit = s.mon.bitsSeen
	s.event(EventFailover, fmt.Sprintf("%s -> %s after %v", s.primary.Name(), s.standby.Name(), cause))
}

// event appends one incident, stamped with the monitor's position, and
// mirrors it into the attached registry (per-kind counter + trace event).
func (s *Supervisor) event(kind EventKind, detail string) {
	s.events = append(s.events, Event{Kind: kind, Bit: s.mon.bitsSeen, Seq: s.mon.seq, Detail: detail})
	if s.obs != nil {
		s.obsEvents[kind].Inc()
		s.obs.Emit("supervisor."+kind.String(), s.mon.bitsSeen, detail)
	}
}

// Condition reports the supervisor's current overall verdict.
func (s *Supervisor) Condition() Condition {
	switch {
	case s.aborted:
		return SourceFault
	case s.latched:
		return StatFail
	case s.usingStandby:
		return FailedOver
	case s.quarantined > 0 || s.retries > 0:
		return Degraded
	}
	return OK
}

// Quarantined reports how many sequences have been discarded.
func (s *Supervisor) Quarantined() int { return s.quarantined }

// Retries reports how many transient read faults have been absorbed.
func (s *Supervisor) Retries() int { return s.retries }

// Events returns the incident timeline so far.
func (s *Supervisor) Events() []Event { return s.events }

func (s *Supervisor) report(accepted []SequenceReport) *SupervisorReport {
	s.obsCondition.Set(float64(s.Condition()))
	rep := &SupervisorReport{
		Reports:          accepted,
		Condition:        s.Condition(),
		Quarantined:      s.quarantined,
		Retries:          s.retries,
		FailoverBit:      s.failoverBit,
		ActiveSource:     s.src.Name(),
		Events:           append([]Event(nil), s.events...),
		OnlineDetectedAt: -1,
	}
	if s.tracker != nil {
		rep.OnlineScore = s.tracker.Score()
		rep.OnlineDetectedAt = s.tracker.DetectedAt()
	}
	return rep
}

// srcReader runs a source's blocking ReadBit calls on a dedicated
// goroutine so the supervisor can time them out. One request is in flight
// at a time; the result channel is buffered so an abandoned reader whose
// read eventually completes can deliver, notice the closed request
// channel, and exit instead of leaking.
type srcReader struct {
	req chan struct{}
	res chan readResult
}

type readResult struct {
	bit byte
	err error
}

func newSrcReader(src trng.Source) *srcReader {
	r := &srcReader{req: make(chan struct{}, 1), res: make(chan readResult, 1)}
	go func() {
		for range r.req {
			b, err := src.ReadBit()
			r.res <- readResult{b, err}
		}
	}()
	return r
}

// abandon tells the reader no further requests are coming. If its current
// read is blocked forever (a true stall), the goroutine stays parked in
// ReadBit — indistinguishable from the hung hardware it models — and
// exits as soon as the read returns.
func (r *srcReader) abandon() { close(r.req) }
