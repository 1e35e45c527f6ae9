package faultinject

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/trng"
)

// ErrStalled is returned by a released Stall source: the stall window is
// over but the source is dead — a non-transient failure, so supervisors
// must fail over rather than retry.
var ErrStalled = errors.New("faultinject: source stalled")

// Flaky wraps a source with scheduled transient read failures: on a
// faulted event ReadBit returns an error wrapping trng.ErrTransient and
// consumes no bit from the inner source, so a retrying reader recovers the
// inner stream exactly. Unlike trng.Erratic's fixed period, the fault
// positions come from a seeded Schedule with a configurable rate and burst
// length — the model of EMI hits or a marginal readout flip-flop.
type Flaky struct {
	Inner    trng.Source
	sched    *Schedule
	injected int
	reads    int64
	obs      *obs.Registry
	obsCount *obs.Counter
}

// NewFlaky wraps inner with transient faults at the given per-read rate,
// each lasting burst consecutive reads.
func NewFlaky(inner trng.Source, rate float64, burst int, seed int64) *Flaky {
	return &Flaky{Inner: inner, sched: NewSchedule(rate, burst, seed)}
}

// Name implements trng.Source.
func (f *Flaky) Name() string { return "flaky(" + f.Inner.Name() + ")" }

// SetObs attaches an observability registry: every injected fault is
// counted (trng_fault_injected_total, kind "flaky") and traced as a
// fault.flaky event at its read position. The injection schedule itself is
// untouched — a run with a given seed injects exactly the same faults with
// or without a registry.
func (f *Flaky) SetObs(r *obs.Registry) {
	f.obs = r
	f.obsCount = r.Counter("trng_fault_injected_total",
		"faults injected, by injector kind", "kind", "flaky")
}

// ReadBit implements trng.Source.
func (f *Flaky) ReadBit() (byte, error) {
	f.reads++
	if f.sched.Next() {
		f.injected++
		f.obsCount.Inc()
		f.obs.Emit("fault.flaky", f.reads-1,
			fmt.Sprintf("injected transient read fault %d", f.injected))
		return 0, fmt.Errorf("faultinject: injected read fault %d: %w", f.injected, trng.ErrTransient)
	}
	return f.Inner.ReadBit()
}

// Injected reports how many reads have been faulted.
func (f *Flaky) Injected() int { return f.injected }

// Stall wraps a source that dies mid-stream: the first StallAfter reads
// come from the inner source, then every ReadBit blocks until Release is
// called (and fails with ErrStalled afterwards). This is the fault a
// per-bit watchdog deadline exists for — the bit never arrives, so no
// retry budget helps; only a timeout does.
type Stall struct {
	Inner      trng.Source
	StallAfter int

	delivered int
	release   chan struct{}
	once      sync.Once
	obs       *obs.Registry
	obsOnce   sync.Once // the stall onset is traced exactly once
}

// NewStall returns a source that blocks forever after stallAfter delivered
// bits. Call Release to unblock stalled readers (they then observe
// ErrStalled).
func NewStall(inner trng.Source, stallAfter int) *Stall {
	return &Stall{Inner: inner, StallAfter: stallAfter, release: make(chan struct{})}
}

// Name implements trng.Source.
func (s *Stall) Name() string { return "stall(" + s.Inner.Name() + ")" }

// SetObs attaches an observability registry; the stall onset is counted
// (kind "stall") and traced once, at the moment the first read blocks.
func (s *Stall) SetObs(r *obs.Registry) { s.obs = r }

// ReadBit implements trng.Source. Once the stall begins it blocks the
// calling goroutine until Release; a watchdog on the consumer side is the
// only way out.
func (s *Stall) ReadBit() (byte, error) {
	if s.delivered >= s.StallAfter {
		s.obsOnce.Do(func() {
			s.obs.Counter("trng_fault_injected_total",
				"faults injected, by injector kind", "kind", "stall").Inc()
			s.obs.Emit("fault.stall", int64(s.delivered),
				fmt.Sprintf("source stalled after %d delivered bits", s.delivered))
		})
		<-s.release
		return 0, ErrStalled
	}
	s.delivered++
	return s.Inner.ReadBit()
}

// Release unblocks all stalled (and future) reads; they fail with
// ErrStalled. It is safe to call more than once and from any goroutine.
func (s *Stall) Release() { s.once.Do(func() { close(s.release) }) }
