package hwblock

import (
	"fmt"

	"repro/internal/hwfast"
	"repro/internal/hwsim"
	"repro/internal/nist"
)

// nonOverlapEngine implements the hardware half of test 7: the shared shift
// register's 9-bit window is compared against the fixed template; a hit
// increments the current block's occurrence counter and arms a hold-off
// counter that suppresses matching for the next m−1 bits (non-overlapping
// scan). Completed blocks' counts W_i sit in a register bank, indexed by
// bits of the global counter.
type nonOverlapEngine struct {
	tpl      uint32
	m        int
	blockLen int

	shift   *hwsim.ShiftReg
	cmp     *hwsim.EqComparator
	w       *hwsim.Counter
	holdoff *hwsim.Counter // down-counter modelled as count-up-to-m−1
	inBlock *hwsim.Counter // bits seen in the current block (window validity)
	bank    []*hwsim.Register
	hold    int
}

func newNonOverlapEngine(b *Block, tpl uint32, m, blockLen int) *nonOverlapEngine {
	bk := b.m.banks.NonOverlap
	e := &nonOverlapEngine{
		tpl:      tpl,
		m:        m,
		blockLen: blockLen,
		shift:    b.shift,
		cmp:      hwsim.NewEqComparator(b.nl, "no_cmp", m),
		w:        hwsim.NewCounter(b.nl, "no_w", uint64(blockLen/m+1)),
		holdoff:  hwsim.NewCounter(b.nl, "no_hold", uint64(m)),
		inBlock:  hwsim.NewCounter(b.nl, "no_fill", uint64(m)),
	}
	store := b.bankStorage(bk.N, (*hwfast.State).NonOverlapBank)
	e.bank = make([]*hwsim.Register, bk.N)
	for i := range e.bank {
		e.bank[i] = hwsim.NewRegisterAt(b.nl, fmt.Sprintf("no_w_%d", i), uint64(blockLen/m+1), &store[i])
	}
	b.bind(bk, func(i int) *uint64 { return e.bank[i].Ref() })
	return e
}

// clock runs after the shared shift register has absorbed the current bit.
func (e *nonOverlapEngine) clock(t int) {
	// Window validity: the whole m-bit window must lie inside the block.
	if e.inBlock.Value() < uint64(e.m) {
		e.inBlock.Inc()
	}
	windowValid := e.inBlock.Value() >= uint64(e.m)
	if e.hold > 0 {
		e.hold--
	} else if windowValid && e.cmp.Matches(e.shift.Window(e.m), uint64(e.tpl)) {
		e.w.Inc()
		e.hold = e.m - 1
	}
	if (t+1)%e.blockLen == 0 {
		if i := t / e.blockLen; i < len(e.bank) { // n·blockLen may fall short of N
			e.bank[i].Load(e.w.Value())
		}
		e.w.Reset()
		e.inBlock.Reset()
		e.hold = 0
	}
}

func (e *nonOverlapEngine) resetLocal() { e.hold = 0 }

// overlapEngine implements the hardware half of test 8: the same shared
// shift register window is compared against the all-ones template every
// clock (overlapping scan); the per-block occurrence counter saturates at
// K = 5 because only the class "≥5" is distinguished, and at each block
// boundary one of the six class counters ν_0..ν_5 increments.
type overlapEngine struct {
	m        int
	blockLen int
	nBlocks  int
	k        int

	shift   *hwsim.ShiftReg
	cmp     *hwsim.EqComparator
	occ     *hwsim.Counter // saturating at k
	inBlock *hwsim.Counter
	classes *hwsim.CounterBank
}

func newOverlapEngine(b *Block, m, blockLen, nBlocks int) *overlapEngine {
	const k = nist.OverlappingTemplateK
	e := &overlapEngine{
		m:        m,
		blockLen: blockLen,
		nBlocks:  nBlocks,
		k:        k,
		shift:    b.shift,
		cmp:      hwsim.NewEqComparator(b.nl, "ov_cmp", m),
		occ:      hwsim.NewCounter(b.nl, "ov_occ", uint64(k)),
		inBlock:  hwsim.NewCounter(b.nl, "ov_fill", uint64(m)),
		classes: hwsim.NewCounterBankOver(b.nl, "ov_class",
			b.bankStorage(k+1, (*hwfast.State).OverlapClasses), uint64(nBlocks)),
	}
	b.bind(b.m.banks.Overlap, e.classes.Ref)
	return e
}

func (e *overlapEngine) clock(t int) {
	if e.inBlock.Value() < uint64(e.m) {
		e.inBlock.Inc()
	}
	windowValid := e.inBlock.Value() >= uint64(e.m)
	allOnes := uint64(1)<<uint(e.m) - 1
	if windowValid && e.cmp.Matches(e.shift.Window(e.m), allOnes) {
		if e.occ.Value() < uint64(e.k) { // saturate at the top class
			e.occ.Inc()
		}
	}
	if (t+1)%e.blockLen == 0 {
		e.classes.Inc(int(e.occ.Value()))
		e.occ.Reset()
		e.inBlock.Reset()
	}
}

// serialEngine implements the hardware half of tests 11 and 12: counter
// banks for all m-, (m−1)- and (m−2)-bit overlapping patterns, decoded from
// the low bits of the shared shift register. A small register captures the
// first m−1 bits of the sequence so the cyclic wrap-around can be fed after
// the last bit (finalize). The approximate-entropy test reads the same
// counters — it adds no hardware (the paper's "unified implementation").
type serialEngine struct {
	m    int
	n    int
	fill int

	shift *hwsim.ShiftReg
	nu    []*hwsim.CounterBank // banks for widths m, m−1, m−2
	head  *hwsim.Register      // first m−1 bits, oldest in MSB
}

func newSerialEngine(b *Block, m, n int) *serialEngine {
	e := &serialEngine{
		m:     m,
		n:     n,
		shift: b.shift,
	}
	e.nu = make([]*hwsim.CounterBank, 3)
	for i, w := range []int{m, m - 1, m - 2} {
		store := b.bankStorage(1<<uint(w), func(st *hwfast.State) []uint64 { return st.SerialCounts(i) })
		e.nu[i] = hwsim.NewCounterBankOver(b.nl, fmt.Sprintf("serial_nu%d", w), store, uint64(n))
		b.bind(b.m.banks.Serial[i], e.nu[i].Ref)
	}
	e.head = hwsim.NewRegister(b.nl, "serial_head", uint64(1<<uint(m-1))-1)
	return e
}

// count increments the pattern counters whose windows are complete. widths
// gates how many of the three banks count (finalize narrows it as the
// wrap-around completes).
func (e *serialEngine) count(widths int) {
	for i, w := range []int{e.m, e.m - 1, e.m - 2} {
		if i >= widths {
			break
		}
		if e.fill >= w {
			e.nu[i].Inc(int(e.shift.Window(w)))
		}
	}
}

func (e *serialEngine) clock(bit byte) {
	if e.fill < e.m-1 {
		// Capture the sequence head for the cyclic wrap-around.
		e.head.Load(e.head.Value()<<1 | uint64(bit))
	}
	if e.fill < e.m {
		e.fill++
	}
	e.count(3)
}

// finalize feeds the stored first m−1 bits back through the pattern
// decoder, completing the cyclic counts: after extra bit j, the (m−j)-bit
// and wider windows have already reached their full n counts, so bank i
// only counts while j < m−1−i ... concretely, extra bit j completes the
// m-bit pattern count always, the (m−1)-bit count for j < m−2, and the
// (m−2)-bit count for j < m−3.
func (e *serialEngine) finalize() {
	for j := 0; j < e.m-1; j++ {
		bit := byte(e.head.Value()>>uint(e.m-2-j)) & 1
		e.shift.Shift(bit)
		widths := 1
		if j < e.m-2 {
			widths = 2
		}
		if j < e.m-3 {
			widths = 3
		}
		e.count(widths)
	}
}

func (e *serialEngine) resetLocal() { e.fill = 0 }
