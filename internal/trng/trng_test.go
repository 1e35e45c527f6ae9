package trng

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/nist"
)

func TestIdealIsDeterministic(t *testing.T) {
	a := Read(NewIdeal(42), 1024)
	b := Read(NewIdeal(42), 1024)
	if a.String() != b.String() {
		t.Error("same seed produced different streams")
	}
	c := Read(NewIdeal(43), 1024)
	if a.String() == c.String() {
		t.Error("different seeds produced identical streams")
	}
}

func TestIdealPassesCoreTests(t *testing.T) {
	s := Read(NewIdeal(1), 65536)
	for _, run := range []func() (*nist.Result, error){
		func() (*nist.Result, error) { return nist.Frequency(s) },
		func() (*nist.Result, error) { return nist.Runs(s) },
		func() (*nist.Result, error) { return nist.Serial(s, 4) },
		func() (*nist.Result, error) { return nist.CumulativeSums(s) },
	} {
		r, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Pass(0.001) {
			t.Errorf("%s rejected the ideal source (P = %g)", r.Name, r.MinP())
		}
	}
}

func TestBiasedHasRequestedBias(t *testing.T) {
	s := Read(NewBiased(0.7, 2), 100_000)
	got := float64(s.Ones()) / float64(s.Len())
	if math.Abs(got-0.7) > 0.01 {
		t.Errorf("measured bias %.3f, want 0.7", got)
	}
}

func TestBiasedFailsFrequencyTest(t *testing.T) {
	s := Read(NewBiased(0.55, 3), 65536)
	r, err := nist.Frequency(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass(0.01) {
		t.Error("frequency test passed a 55% biased source")
	}
}

func TestMarkovBalancedButCorrelated(t *testing.T) {
	s := Read(NewMarkov(0.8, 4), 65536)
	// Balanced on average...
	freq, err := nist.Frequency(s)
	if err != nil {
		t.Fatal(err)
	}
	_ = freq // bias may or may not trip; correlation must.
	// ...but the runs test must reject the stickiness.
	r, err := nist.Runs(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass(0.01) {
		t.Error("runs test passed a sticky Markov source")
	}
}

func TestMarkovHalfIsIdeal(t *testing.T) {
	s := Read(NewMarkov(0.5, 5), 65536)
	r, err := nist.Serial(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass(0.001) {
		t.Errorf("serial test rejected stick=0.5 Markov source (P = %g)", r.MinP())
	}
}

func TestRingOscillatorWeakJitterDetectedAtLongLength(t *testing.T) {
	// At jitterRMS = 0.5 the residual lag-1 correlation (~0.7 %) is below
	// the noise floor of short sequences but reliably detected by the
	// serial test on 2^20 bits — the "slow tests for long term
	// statistical weaknesses" scenario of the paper's introduction.
	s := Read(NewRingOscillator(100.37, 0.5, 2), 1<<20)
	r, err := nist.Serial(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass(0.05) {
		t.Errorf("serial test passed a weak-jitter oscillator at n=2^20 (P=%g)", r.MinP())
	}
}

func TestRingOscillatorHealthyPasses(t *testing.T) {
	s := Read(NewRingOscillator(100.37, 1.0, 6), 65536)
	for _, check := range []struct {
		name string
		run  func() (*nist.Result, error)
	}{
		{"frequency", func() (*nist.Result, error) { return nist.Frequency(s) }},
		{"runs", func() (*nist.Result, error) { return nist.Runs(s) }},
		{"serial", func() (*nist.Result, error) { return nist.Serial(s, 4) }},
	} {
		r, err := check.run()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Pass(0.001) {
			t.Errorf("%s rejected healthy ring oscillator (P = %g)", check.name, r.MinP())
		}
	}
}

func TestRingOscillatorLockedFails(t *testing.T) {
	ro := NewRingOscillator(100.37, 0.5, 7)
	ro.Lock(0.001)
	s := Read(ro, 65536)
	r, err := nist.Serial(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass(0.01) {
		t.Error("serial test passed a locked ring oscillator")
	}
}

func TestStuckAt(t *testing.T) {
	s := Read(NewStuckAt(1), 1000)
	if s.Ones() != 1000 {
		t.Errorf("stuck-at-1 produced %d ones of 1000", s.Ones())
	}
	z := Read(NewStuckAt(0), 1000)
	if z.Ones() != 0 {
		t.Errorf("stuck-at-0 produced %d ones", z.Ones())
	}
	r, err := nist.Frequency(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass(0.01) {
		t.Error("frequency test passed a stuck source")
	}
}

func TestDriftMovesBias(t *testing.T) {
	d := NewDrift(0.5, 0.8, 50_000, 8)
	early := Read(d, 10_000)
	// Skip the middle.
	Read(d, 35_000)
	late := Read(d, 10_000)
	earlyBias := float64(early.Ones()) / 10_000
	lateBias := float64(late.Ones()) / 10_000
	if earlyBias > 0.56 {
		t.Errorf("early bias %.3f already high", earlyBias)
	}
	if lateBias < 0.7 {
		t.Errorf("late bias %.3f has not drifted (want ≥ 0.7)", lateBias)
	}
}

func TestSwitchAtSwitches(t *testing.T) {
	src := NewSwitchAt(NewStuckAt(0), NewStuckAt(1), 100)
	s := Read(src, 200)
	if s.Slice(0, 100).Ones() != 0 {
		t.Error("bits before the switch are not from Before")
	}
	if s.Slice(100, 200).Ones() != 100 {
		t.Error("bits after the switch are not from After")
	}
	if src.Name() != "stuck-at->stuck-at" {
		t.Errorf("Name = %q", src.Name())
	}
}

func TestBurstInjectsBadBits(t *testing.T) {
	b := NewBurst(NewStuckAt(0), NewStuckAt(1), 0.01, 32, 9)
	s := Read(b, 100_000)
	ones := s.Ones()
	// Expected fraction of bad bits ≈ 0.01·32/(1+0.01·32) ≈ 24 %.
	if ones == 0 {
		t.Fatal("burst source never injected bad bits")
	}
	frac := float64(ones) / 100_000
	if frac < 0.05 || frac > 0.6 {
		t.Errorf("bad-bit fraction %.3f outside plausible band", frac)
	}
}

func TestSourceNames(t *testing.T) {
	cases := []struct {
		src  Source
		want string
	}{
		{NewIdeal(1), "ideal"},
		{NewBiased(0.6, 1), "biased"},
		{NewMarkov(0.6, 1), "markov"},
		{NewRingOscillator(100.37, 0.5, 1), "ring-oscillator"},
		{NewStuckAt(0), "stuck-at"},
		{NewDrift(0.5, 0.6, 1000, 1), "aging-drift"},
	}
	for _, c := range cases {
		if got := c.src.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestSourcesNeverError(t *testing.T) {
	sources := []Source{
		NewIdeal(1), NewBiased(0.6, 1), NewMarkov(0.6, 1),
		NewRingOscillator(100.37, 0.5, 1), NewStuckAt(1),
		NewDrift(0.5, 0.6, 100, 1),
		NewSwitchAt(NewIdeal(1), NewIdeal(2), 10),
		NewBurst(NewIdeal(1), NewStuckAt(1), 0.1, 8, 1),
	}
	for _, src := range sources {
		for i := 0; i < 100; i++ {
			if _, err := src.ReadBit(); err != nil {
				t.Errorf("%s: ReadBit error: %v", src.Name(), err)
				break
			}
		}
	}
}

func TestErraticFailsOnSchedule(t *testing.T) {
	src := NewErratic(NewIdeal(1), 4)
	for i := 1; i <= 100; i++ {
		_, err := src.ReadBit()
		if i%4 == 0 {
			if err == nil {
				t.Fatalf("call %d: no error on scheduled fault", i)
			}
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("call %d: error %v does not wrap ErrTransient", i, err)
			}
		} else if err != nil {
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
	if src.Faults() != 25 {
		t.Errorf("Faults = %d, want 25", src.Faults())
	}
}

func TestErraticRetryPreservesStream(t *testing.T) {
	// A retrying reader must see exactly the inner stream: failed calls
	// consume nothing.
	want := Read(NewIdeal(7), 200)
	src := NewErratic(NewIdeal(7), 3)
	var got []byte
	for len(got) < 200 {
		b, err := src.ReadBit()
		if err != nil {
			continue // retry
		}
		got = append(got, b)
	}
	for i := range got {
		if got[i] != want.Bit(i) {
			t.Fatalf("bit %d: retried stream diverged from inner stream", i)
		}
	}
}

// TestNewSimulated pins every -source name to its preset: the first bits of
// each named source equal those of the model built directly.
func TestNewSimulated(t *testing.T) {
	const p, seed = 0.6, 1
	want := map[string]Source{
		"ideal":   NewIdeal(seed),
		"biased":  NewBiased(p, seed),
		"markov":  NewMarkov(p, seed),
		"ringosc": NewRingOscillator(100.37, 0.5, seed),
		"locked":  NewRingOscillator(100.37, 0.001, seed),
		"drift":   NewDrift(0.5, p, 1<<20, seed),
		"stuck":   NewStuckAt(1),
	}
	if got := strings.Count(SimulatedNames(), ",") + 1; got != len(want) {
		t.Errorf("SimulatedNames() = %q, want %d names", SimulatedNames(), len(want))
	}
	for kind, ref := range want {
		src, err := NewSimulated(strings.ToUpper(kind), p, seed)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if !bytes.Equal(Read(src, 4096).Bits(), Read(ref, 4096).Bits()) {
			t.Errorf("%s: stream differs from its preset", kind)
		}
	}
	if _, err := NewSimulated("nope", p, seed); err == nil {
		t.Error("unknown source accepted")
	}
}
