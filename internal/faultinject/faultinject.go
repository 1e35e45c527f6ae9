// Package faultinject provides composable, seeded fault injectors for the
// operational failure modes a deployed on-the-fly monitor must survive:
// transient read errors and stalls of the entropy source, and corrupted
// register-file readouts on the testing-block→microcontroller bus (the
// probing/tampering surface the paper's distributed-verdict design is
// built against). Silent corruption of the bits themselves needs no
// injector: it is a statistical defect, which the trng source models
// (Biased, Markov, SwitchAt, Burst) already produce.
//
// Every injector draws its fault positions from a Schedule — a seeded
// deterministic decider — so a run with a given seed injects exactly the
// same faults every time: the whole fault-handling path of core.Supervisor
// is reproducible bit for bit.
//
// The injectors wrap, rather than replace, the statistical source models
// of internal/trng: a Flaky(Biased) source is a biased TRNG with a flaky
// readout, and the monitor must both retry the flakiness and detect the
// bias.
//
//trnglint:deterministic
package faultinject

import "math/rand"

// Schedule is a seeded deterministic fault schedule: a stream of per-event
// decisions, each firing with probability Rate, and each firing extending
// over Burst consecutive events (a fault that fires mid-burst restarts the
// burst). Two Schedules with the same parameters and seed make identical
// decisions forever.
type Schedule struct {
	rng       *rand.Rand
	rate      float64
	burst     int
	remaining int
	fired     int
}

// NewSchedule returns a schedule firing with the given per-event rate; a
// firing lasts max(burst, 1) events.
func NewSchedule(rate float64, burst int, seed int64) *Schedule {
	if burst < 1 {
		burst = 1
	}
	return &Schedule{rng: rand.New(rand.NewSource(seed)), rate: rate, burst: burst}
}

// Next advances the schedule one event and reports whether a fault is
// active for it.
func (s *Schedule) Next() bool {
	if s.rng.Float64() < s.rate {
		s.remaining = s.burst
	}
	if s.remaining > 0 {
		s.remaining--
		s.fired++
		return true
	}
	return false
}

// Fired reports how many events have been faulted so far.
func (s *Schedule) Fired() int { return s.fired }
