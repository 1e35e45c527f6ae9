// Package area builds the comparison baseline of the paper's Table IV: an
// *individual*, all-hardware implementation of each test in the style of
// prior work ([13] Veljković et al., DATE 2012), where "each test was
// implemented individually and none of the hardware resources were
// shared", and the test's decision logic (accumulation, squaring,
// comparison against the critical value, alarm flag) lives in hardware too.
//
// Comparing the summed footprint of these individual blocks against the
// unified HW/SW design of internal/hwblock reproduces the paper's ~20 %
// slice saving and exposes where it comes from: the shared up/down counter
// (no per-test ones counter), the shared global bit counter (no per-test
// block counters), the shared shift register, and the removal of all
// decision arithmetic from hardware.
package area

import (
	"fmt"

	"repro/internal/hwblock"
	"repro/internal/hwsim"
	"repro/internal/nist"
)

// IndividualBlock is the structural model of one stand-alone test
// implementation.
type IndividualBlock struct {
	// TestID is the SP800-22 test number.
	TestID int
	// Netlist is the structural inventory.
	Netlist *hwsim.Netlist
}

// decisionUnit adds the in-hardware decision logic an individual
// implementation needs: an accumulator, a squarer when the statistic is a
// sum of squares, a comparator against the stored critical value and the
// alarm flag.
func decisionUnit(nl *hwsim.Netlist, name string, statBits int, needsSquarer bool) {
	hwsim.NewRegister(nl, name+"_acc", uint64(1)<<uint(statBits)-1)
	if needsSquarer {
		// A combinational w×w squarer costs roughly w²/6 LUT6s (array
		// multiplier with both operands equal).
		sq := &squarer{name: name + "_sqr", width: statBits}
		nl.AddPrimitive(sq)
	}
	hwsim.NewEqComparator(nl, name+"_crit", statBits)
	hwsim.NewRegister(nl, name+"_alarm", 1)
}

// squarer is a purely structural combinational squaring unit.
type squarer struct {
	name  string
	width int
}

// PrimName implements hwsim.Primitive.
func (s *squarer) PrimName() string { return fmt.Sprintf("squarer %s[%d]", s.name, s.width) }

// Resources implements hwsim.Primitive.
func (s *squarer) Resources() hwsim.Resources {
	return hwsim.Resources{LUTs: s.width * s.width / 6}
}

// Reset implements hwsim.Primitive.
func (s *squarer) Reset() {}

// BuildIndividual constructs the stand-alone implementation of one test for
// sequence length n with the given parameters. Supported tests are the
// nine HW-suitable ones.
func BuildIndividual(testID, n int, p nist.Params) (*IndividualBlock, error) {
	nl := hwsim.NewNetlist(fmt.Sprintf("individual-test%d-n%d", testID, n))
	nBits := hwsim.WidthFor(uint64(n))
	switch testID {
	case 1:
		hwsim.NewCounter(nl, "global", uint64(n))
		hwsim.NewCounter(nl, "ones", uint64(n))
		decisionUnit(nl, "t1", nBits, false)
	case 2:
		hwsim.NewCounter(nl, "global", uint64(n))
		hwsim.NewCounter(nl, "eps", uint64(p.BlockFrequencyM))
		// The all-hardware version accumulates Σ(ε−M/2)² on the fly.
		decisionUnit(nl, "t2", nBits+hwsim.WidthFor(uint64(p.BlockFrequencyM)), true)
	case 3:
		hwsim.NewCounter(nl, "global", uint64(n))
		hwsim.NewCounter(nl, "ones", uint64(n)) // needed for the interval select
		hwsim.NewCounter(nl, "runs", uint64(n))
		hwsim.NewRegister(nl, "prev", 1)
		decisionUnit(nl, "t3", nBits, false)
	case 4:
		hwsim.NewCounter(nl, "global", uint64(n))
		lo, hi, err := nist.LongestRunClassBounds(p.LongestRunM)
		if err != nil {
			return nil, err
		}
		hwsim.NewCounter(nl, "run", uint64(hi))
		hwsim.NewMaxTracker(nl, "blkmax", uint64(hi))
		hwsim.NewCounterBank(nl, "classes", hi-lo+1, uint64(n/p.LongestRunM))
		decisionUnit(nl, "t4", nBits+8, true)
	case 7:
		hwsim.NewCounter(nl, "global", uint64(n))
		hwsim.NewShiftReg(nl, "pattern", p.TemplateM)
		hwsim.NewEqComparator(nl, "tpl", p.TemplateM)
		blockLen := n / p.NonOverlappingN
		hwsim.NewCounter(nl, "w", uint64(blockLen/p.TemplateM+1))
		hwsim.NewCounter(nl, "hold", uint64(p.TemplateM))
		decisionUnit(nl, "t7", nBits+4, true)
	case 8:
		hwsim.NewCounter(nl, "global", uint64(n))
		hwsim.NewShiftReg(nl, "pattern", p.TemplateM)
		hwsim.NewEqComparator(nl, "tpl", p.TemplateM)
		hwsim.NewCounter(nl, "occ", 5)
		hwsim.NewCounterBank(nl, "classes", 6, uint64(n/p.OverlappingM))
		decisionUnit(nl, "t8", nBits+8, true)
	case 11:
		hwsim.NewCounter(nl, "global", uint64(n))
		hwsim.NewShiftReg(nl, "pattern", p.SerialM)
		for _, w := range []int{p.SerialM, p.SerialM - 1, p.SerialM - 2} {
			hwsim.NewCounterBank(nl, fmt.Sprintf("nu%d", w), 1<<uint(w), uint64(n))
		}
		decisionUnit(nl, "t11", 2*nBits+4, true)
	case 12:
		hwsim.NewCounter(nl, "global", uint64(n))
		hwsim.NewShiftReg(nl, "pattern", p.SerialM)
		// Without sharing, the ApEn test duplicates the pattern banks.
		for _, w := range []int{p.SerialM, p.SerialM - 1} {
			hwsim.NewCounterBank(nl, fmt.Sprintf("nu%d", w), 1<<uint(w), uint64(n))
		}
		// The x·log(x) evaluation in hardware: PWL ROM + multiplier.
		hwsim.NewCounterBank(nl, "pwl_rom", 32, 1<<16-1) // 32 Q16 entries
		decisionUnit(nl, "t12", 2*nBits, true)
	case 13:
		hwsim.NewCounter(nl, "global", uint64(n))
		hwsim.NewUpDownCounter(nl, "walk", uint64(n))
		hwsim.NewMinMaxTracker(nl, "ext", uint64(n))
		decisionUnit(nl, "t13", nBits+1, false)
	default:
		return nil, fmt.Errorf("area: test %d has no hardware implementation", testID)
	}
	return &IndividualBlock{TestID: testID, Netlist: nl}, nil
}

// Comparison is the Table IV contrast for one design point.
type Comparison struct {
	// N is the sequence length.
	N int
	// Tests are the test numbers compared.
	Tests []int
	// IndividualSlices is the summed slice count of the stand-alone
	// implementations.
	IndividualSlices int
	// UnifiedSlices is the unified HW/SW design's slice count.
	UnifiedSlices int
	// Saving is the fractional slice saving of the unified design.
	Saving float64
}

// Compare builds the individual implementation of every test in the
// unified design cfg and contrasts the total footprint.
func Compare(cfg hwblock.Config) (*Comparison, error) {
	b, err := hwblock.New(cfg)
	if err != nil {
		return nil, err
	}
	unified := hwsim.EstimateFPGA(b.Netlist()).Slices
	total := 0
	for _, id := range cfg.Tests {
		if id == 12 && cfg.Has(11) {
			// Even in the individual world, prior work implements the
			// ApEn test only where it exists at all; the paper's
			// comparison covers tests 1,2,3,4,7,13.
		}
		ib, err := BuildIndividual(id, cfg.N, cfg.Params)
		if err != nil {
			return nil, err
		}
		total += hwsim.EstimateFPGA(ib.Netlist).Slices
	}
	return &Comparison{
		N:                cfg.N,
		Tests:            cfg.Tests,
		IndividualSlices: total,
		UnifiedSlices:    unified,
		Saving:           1 - float64(unified)/float64(total),
	}, nil
}
