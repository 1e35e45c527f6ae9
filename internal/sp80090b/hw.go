package sp80090b

import (
	"repro/internal/hwsim"
)

// HealthBlock is the bit-serial hardware realization of the two SP800-90B
// health tests: a run counter with a comparator (RCT) and a window counter
// pair with a comparator (APT). It exists to quantify the area contrast
// with the paper's NIST-suite monitor — the minimal standard-compliant
// health tests cost a few dozen LUTs, but catch only catastrophic defects.
type HealthBlock struct {
	nl  *hwsim.Netlist
	rct *RepetitionCountTest
	apt *AdaptiveProportionTest

	// structural primitives (behaviour runs through rct/apt; these carry
	// the netlist resources a synthesized version would occupy)
	runCounter *hwsim.Counter
	winCounter *hwsim.Counter
	occCounter *hwsim.Counter
}

// NewHealthBlock builds the hardware health-test block for the given
// entropy assertion and false-positive probability.
func NewHealthBlock(h, alpha float64, window int) (*HealthBlock, error) {
	rct, err := NewRepetitionCountTest(h, alpha)
	if err != nil {
		return nil, err
	}
	apt, err := NewAdaptiveProportionTest(h, alpha, window)
	if err != nil {
		return nil, err
	}
	b := &HealthBlock{
		nl:  hwsim.NewNetlist("sp80090b-health"),
		rct: rct,
		apt: apt,
	}
	b.runCounter = hwsim.NewCounter(b.nl, "rct_run", uint64(rct.Cutoff()))
	hwsim.NewRegister(b.nl, "rct_last", 1)
	hwsim.NewEqComparator(b.nl, "rct_cmp", hwsim.WidthFor(uint64(rct.Cutoff())))
	b.winCounter = hwsim.NewCounter(b.nl, "apt_window", uint64(window))
	b.occCounter = hwsim.NewCounter(b.nl, "apt_count", uint64(window))
	hwsim.NewRegister(b.nl, "apt_first", 1)
	hwsim.NewEqComparator(b.nl, "apt_cmp", hwsim.WidthFor(uint64(window)))
	b.nl.SetMuxWords(2) // alarm counters exposed as two words
	return b, nil
}

// Netlist returns the structural inventory for area estimation.
func (b *HealthBlock) Netlist() *hwsim.Netlist { return b.nl }

// Feed clocks one bit through both tests; it reports whether either test
// alarmed on this bit.
func (b *HealthBlock) Feed(bit byte) (rctAlarm, aptAlarm bool) {
	return b.rct.Feed(bit), b.apt.Feed(bit)
}

// Alarms returns the cumulative alarm counts.
func (b *HealthBlock) Alarms() (rct, apt int) {
	return b.rct.Alarms(), b.apt.Alarms()
}

// Reset clears both tests.
func (b *HealthBlock) Reset() {
	b.rct.Reset()
	b.apt.Reset()
}
