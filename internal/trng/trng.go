// Package trng models true random number generators and the failure and
// attack modes the on-the-fly tests must detect. The paper's evaluation
// platform monitors a physical TRNG on the same FPGA; here the physical
// entropy sources are replaced by parametric models that produce the same
// classes of bit-stream defects — bias, correlation, oscillator lock-in,
// total failure, slow aging drift — so the detection paths of the platform
// are exercised end to end. Operational faults (dropped reads, stalls) are
// part of the model too: see ErrTransient, Erratic, and the composable
// injectors in internal/faultinject.
//
// All sources are deterministic functions of their seed, so every
// experiment in the repository is reproducible.
package trng

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/bitstream"
)

// Source is a bit-producing entropy source. Statistical failures are
// modelled as *bad bits* — a defective source still delivers a stream, just
// a non-random one — but ReadBit may also fail operationally: a flaky
// readout path drops a read, a dying oscillator stops toggling. An error
// wrapping ErrTransient means the read failed but a retry may succeed and
// no bit was consumed; any other error means the source is gone for good.
// The purely statistical models in this package (Ideal, Biased, Markov,
// RingOscillator, StuckAt, Drift) never error; Erratic and the wrappers in
// internal/faultinject do.
type Source interface {
	bitstream.BitReader
	// Name identifies the source model for reports.
	Name() string
}

// ErrTransient marks a recoverable read failure: the bit was not delivered,
// no stream position was consumed, and retrying the read may succeed.
// Supervisory layers test for it with errors.Is.
var ErrTransient = errors.New("trng: transient read failure")

// Read drains n bits from a source into a sequence. It is a convenience
// for the infallible statistical models; read errors truncate the
// sequence silently, so fallible sources should be drained through
// bitstream.ReadAll (or a supervisor) instead.
func Read(src Source, n int) *bitstream.Sequence {
	//trnglint:allow errdrop silent truncation is this helper's documented contract; fallible sources must use bitstream.ReadAll or a Supervisor
	s, _ := bitstream.ReadAll(src, n)
	return s
}

// Ideal is an unbiased, independent bit source — the H₀ reference. It draws
// from a seeded PRNG, which is statistically ideal for every test in the
// suite.
type Ideal struct {
	rng *rand.Rand
}

// NewIdeal returns an ideal source with the given seed.
func NewIdeal(seed int64) *Ideal {
	return &Ideal{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Source.
func (s *Ideal) Name() string { return "ideal" }

// ReadBit implements Source.
func (s *Ideal) ReadBit() (byte, error) { return byte(s.rng.Int63() & 1), nil }

// Biased emits ones with a fixed probability p, modelling a TRNG whose
// comparator threshold or duty cycle has shifted.
type Biased struct {
	rng *rand.Rand
	p   float64
}

// NewBiased returns a source with P(1) = p.
func NewBiased(p float64, seed int64) *Biased {
	return &Biased{rng: rand.New(rand.NewSource(seed)), p: p}
}

// Name implements Source.
func (s *Biased) Name() string { return "biased" }

// ReadBit implements Source.
func (s *Biased) ReadBit() (byte, error) {
	if s.rng.Float64() < s.p {
		return 1, nil
	}
	return 0, nil
}

// Markov is a two-state Markov chain: the next bit equals the previous one
// with probability stick. stick = 0.5 is ideal; stick > 0.5 models
// bandwidth-limited sampling (correlated bits); stick < 0.5 models an
// oscillating artefact.
type Markov struct {
	rng   *rand.Rand
	stick float64
	last  byte
}

// NewMarkov returns a Markov source with the given persistence probability.
func NewMarkov(stick float64, seed int64) *Markov {
	return &Markov{rng: rand.New(rand.NewSource(seed)), stick: stick}
}

// Name implements Source.
func (s *Markov) Name() string { return "markov" }

// ReadBit implements Source.
func (s *Markov) ReadBit() (byte, error) {
	if s.rng.Float64() >= s.stick {
		s.last ^= 1
	}
	return s.last, nil
}

// RingOscillator models an elementary ring-oscillator TRNG: a free-running
// oscillator sampled at a fixed rate, with Gaussian phase jitter
// accumulating between samples. The output bit is the oscillator's level at
// the sampling instant.
//
// Ratio is the (irrational in practice) ratio of sampling period to
// oscillator period; JitterRMS is the standard deviation of the phase noise
// accumulated per sample, in oscillator periods. Large jitter gives full
// entropy; jitter near zero degenerates into a deterministic pattern — the
// condition a frequency-injection attack creates.
//
// The residual lag-1 correlation of the sampled bits scales like the mod-1
// discrepancy of the per-sample phase increment, ≈ exp(−2π²·JitterRMS²):
// at JitterRMS = 0.5 the ~0.7 % residual is reliably caught by the runs
// and serial tests on 2^20-bit sequences (a realistic weak-entropy
// condition), while JitterRMS ≥ 0.8 is statistically ideal at every length
// the platform supports.
type RingOscillator struct {
	rng       *rand.Rand
	phase     float64 // current phase in oscillator periods (mod 1)
	Ratio     float64
	JitterRMS float64
}

// NewRingOscillator returns a ring-oscillator source. Typical healthy
// values: ratio ≈ 100.37, jitterRMS ≥ 0.8.
func NewRingOscillator(ratio, jitterRMS float64, seed int64) *RingOscillator {
	return &RingOscillator{
		rng:       rand.New(rand.NewSource(seed)),
		Ratio:     ratio,
		JitterRMS: jitterRMS,
	}
}

// Name implements Source.
func (s *RingOscillator) Name() string { return "ring-oscillator" }

// ReadBit implements Source.
func (s *RingOscillator) ReadBit() (byte, error) {
	s.phase += s.Ratio + s.rng.NormFloat64()*s.JitterRMS
	s.phase -= math.Floor(s.phase)
	if s.phase < 0.5 {
		return 1, nil
	}
	return 0, nil
}

// Lock models a frequency-injection attack on the oscillator (Markettos &
// Moore, CHES 2009): the oscillator locks to the injected signal, the
// accumulated jitter collapses, and the output becomes (near-)periodic.
// residualJitter is the tiny jitter remaining under lock.
func (s *RingOscillator) Lock(residualJitter float64) {
	s.JitterRMS = residualJitter
}

// Unlock restores healthy jitter.
func (s *RingOscillator) Unlock(jitterRMS float64) {
	s.JitterRMS = jitterRMS
}

// simulated is the one name table behind every command's -source flag, in
// the order help text lists it. p is the one-probability (biased), the
// stickiness (markov) or the end-of-life one-probability (drift); the other
// presets ignore it.
var simulated = []struct {
	name  string
	build func(p float64, seed int64) Source
}{
	{"ideal", func(_ float64, seed int64) Source { return NewIdeal(seed) }},
	{"biased", func(p float64, seed int64) Source { return NewBiased(p, seed) }},
	{"markov", func(p float64, seed int64) Source { return NewMarkov(p, seed) }},
	{"ringosc", func(_ float64, seed int64) Source { return NewRingOscillator(100.37, 0.5, seed) }},
	{"locked", func(_ float64, seed int64) Source { return NewRingOscillator(100.37, 0.001, seed) }},
	{"drift", func(p float64, seed int64) Source { return NewDrift(0.5, p, 1<<20, seed) }},
	{"stuck", func(float64, int64) Source { return NewStuckAt(1) }},
}

// SimulatedNames lists the names NewSimulated accepts, comma-separated, for
// flag help text.
func SimulatedNames() string {
	names := make([]string, len(simulated))
	for i, s := range simulated {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// NewSimulated builds the named preset (case-insensitive): ideal, biased,
// markov, ringosc (a healthy ring oscillator), locked (the same oscillator
// under a lock-in attack), drift (aging from p=0.5 to p over 2^20 bits) or
// stuck (a constant 1).
func NewSimulated(kind string, p float64, seed int64) (Source, error) {
	for _, s := range simulated {
		if strings.ToLower(kind) == s.name {
			return s.build(p, seed), nil
		}
	}
	return nil, fmt.Errorf("trng: unknown source %q (want %s)", kind, SimulatedNames())
}
