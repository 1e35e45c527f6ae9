package hwblock

import (
	"fmt"

	"repro/internal/hwfast"
	"repro/internal/hwsim"
	"repro/internal/nist"
)

// walkEngine implements the hardware half of test 13 (cumulative sums): an
// up/down counter tracking the ±1 random walk plus min/max registers. Its
// final value also yields N_ones = (S_final + N)/2, which is why no
// separate ones counter exists anywhere in the block (the paper's "omitting
// a redundant counter").
type walkEngine struct {
	n   int
	s   *hwsim.UpDownCounter
	ext *hwsim.MinMaxTracker
}

func newWalkEngine(b *Block, n int) *walkEngine {
	e := &walkEngine{
		n:   n,
		s:   hwsim.NewUpDownCounter(b.nl, "cusum_s", uint64(n)),
		ext: hwsim.NewMinMaxTracker(b.nl, "cusum_ext", uint64(n)),
	}
	// Signed walk values are exposed in offset-binary form (value + N), so
	// every register read is unsigned; the software subtracts N after
	// reassembly.
	b.rf.walk = [3]func() uint64{
		func() uint64 { return uint64(e.ext.Max() + int64(n)) },
		func() uint64 { return uint64(e.ext.Min() + int64(n)) },
		func() uint64 { return uint64(e.s.Value() + int64(n)) },
	}
	return e
}

func (e *walkEngine) clock(bit byte) {
	if bit == 1 {
		e.s.Inc()
	} else {
		e.s.Dec()
	}
	e.ext.Update(e.s.Value())
}

// runsEngine implements the hardware half of test 3: a previous-bit
// register and a runs counter. N_ones comes from the walk engine.
type runsEngine struct {
	runs *hwsim.Counter
	prev *hwsim.Register
}

func newRunsEngine(b *Block, n int) *runsEngine {
	e := &runsEngine{
		runs: hwsim.NewCounter(b.nl, "runs", uint64(n)),
		prev: hwsim.NewRegister(b.nl, "runs_prev", 1),
	}
	b.rf.refs[b.m.banks.Runs.First] = e.runs.Ref()
	return e
}

func (e *runsEngine) clock(bit byte, t int) {
	if t == 0 || byte(e.prev.Value()) != bit {
		e.runs.Inc()
	}
	e.prev.Load(uint64(bit))
}

// blockFreqEngine implements the hardware half of test 2: one ones counter
// for the current block and a register bank holding the completed blocks'
// counts ε_1..ε_N. Block boundaries, and the bank register a boundary
// loads, are bits of the global counter (M is a power of two).
type blockFreqEngine struct {
	m    int
	eps  *hwsim.Counter
	bank []*hwsim.Register
}

func newBlockFreqEngine(b *Block, m int) *blockFreqEngine {
	bk := b.m.banks.BlockFreq
	store := b.bankStorage(bk.N, (*hwfast.State).BlockFreqBank)
	e := &blockFreqEngine{m: m, eps: hwsim.NewCounter(b.nl, "bf_eps", uint64(m))}
	e.bank = make([]*hwsim.Register, bk.N)
	for i := range e.bank {
		e.bank[i] = hwsim.NewRegisterAt(b.nl, fmt.Sprintf("bf_eps_%d", i), uint64(m), &store[i])
	}
	b.bind(bk, func(i int) *uint64 { return e.bank[i].Ref() })
	return e
}

func (e *blockFreqEngine) clock(bit byte, t int) {
	if bit == 1 {
		e.eps.Inc()
	}
	if (t+1)%e.m == 0 { // block boundary: a global-counter bit edge
		e.bank[t/e.m].Load(e.eps.Value())
		e.eps.Reset()
	}
}

// longestRunEngine implements the hardware half of test 4: a saturating
// current-run counter, a per-block maximum tracker, and one class counter
// per longest-run class. Saturating at the top class bound keeps the run
// counter narrow regardless of M — runs longer than "≥hi" all land in the
// same class.
type longestRunEngine struct {
	m       int
	lo, hi  int
	run     *hwsim.Counter // saturating at hi
	blkMax  *hwsim.MaxTracker
	classes *hwsim.CounterBank
}

func newLongestRunEngine(b *Block, m, nBlocks int) *longestRunEngine {
	lo, hi, err := nist.LongestRunClassBounds(m)
	if err != nil {
		panic(err) // unreachable: NewRegMap derived the class bank from the same bounds
	}
	e := &longestRunEngine{
		m:      m,
		lo:     lo,
		hi:     hi,
		run:    hwsim.NewCounter(b.nl, "lr_run", uint64(hi)),
		blkMax: hwsim.NewMaxTracker(b.nl, "lr_max", uint64(hi)),
		classes: hwsim.NewCounterBankOver(b.nl, "lr_class",
			b.bankStorage(hi-lo+1, (*hwfast.State).LongestRunClasses), uint64(nBlocks)),
	}
	b.bind(b.m.banks.LongestRun, e.classes.Ref)
	return e
}

func (e *longestRunEngine) clock(bit byte, t int) {
	if bit == 1 {
		if e.run.Value() < uint64(e.hi) { // saturate
			e.run.Inc()
		}
	} else {
		e.run.Reset()
	}
	e.blkMax.Update(e.run.Value())
	if (t+1)%e.m == 0 {
		longest := int(e.blkMax.Max())
		class := 0
		switch {
		case longest <= e.lo:
			class = 0
		case longest >= e.hi:
			class = e.hi - e.lo
		default:
			class = longest - e.lo
		}
		e.classes.Inc(class)
		e.blkMax.Clear()
		e.run.Reset()
	}
}
