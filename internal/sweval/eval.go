package sweval

import (
	"fmt"
	"math/bits"

	"repro/internal/hwblock"
)

// Verdict is the outcome of one test's software evaluation.
type Verdict struct {
	// TestID is the SP800-22 test number.
	TestID int
	// Pass reports whether the randomness hypothesis is accepted at the
	// critical values' alpha.
	Pass bool
	// Statistic is the integer (or Q16 fixed-point) test statistic the
	// embedded routine computed.
	Statistic int64
	// Threshold is the precomputed constant the statistic was compared
	// against.
	Threshold int64
	// Note carries auxiliary detail (e.g. which serial statistic failed).
	Note string
	// Cost is the instruction count this test's routine spent on a
	// metered pass, zero on an unmetered one. The shared random-walk
	// reads (S_MAX, S_MIN, S_FINAL) are charged to test 13, their home in
	// the paper's unified register map.
	Cost Cost
}

// Report is the result of one full software evaluation pass over the
// register file.
type Report struct {
	// Verdicts holds one entry per implemented test, ascending by TestID.
	Verdicts []Verdict
	// Cost is the total instruction count of the pass, in the paper's
	// Table III categories: the sum of the verdicts' costs. An unmetered
	// pass leaves it zero.
	Cost Cost
	// BusWords is the number of 16-bit register-file words the pass read,
	// counted on every pass; on a metered one it equals Cost's READ.
	BusWords int
}

// Pass reports whether every implemented test accepted.
func (r *Report) Pass() bool {
	for i := range r.Verdicts {
		if !r.Verdicts[i].Pass {
			return false
		}
	}
	return true
}

// Failed lists the test numbers that rejected.
func (r *Report) Failed() []int {
	var out []int
	for i := range r.Verdicts {
		if v := &r.Verdicts[i]; !v.Pass {
			out = append(out, v.TestID)
		}
	}
	return out
}

// TestCost returns the cost charged to test id in this pass, or a zero
// cost when the pass did not run the test.
func (r *Report) TestCost(id int) Cost {
	for i := range r.Verdicts {
		if r.Verdicts[i].TestID == id {
			return r.Verdicts[i].Cost
		}
	}
	return Cost{}
}

// add appends the verdict of test id, carrying the cost its routine
// metered, or a zero cost when m is off. It writes the verdict's fields in
// place, in the capacity the pass reserved.
func (r *Report) add(m *meter, id int, pass bool, stat, threshold int64, note string) {
	r.Verdicts = r.Verdicts[:len(r.Verdicts)+1]
	v := &r.Verdicts[len(r.Verdicts)-1]
	v.TestID, v.Pass, v.Statistic, v.Threshold, v.Note = id, pass, stat, threshold, note
	if m.off {
		v.Cost = Cost{}
		return
	}
	v.Cost = m.cost
	r.Cost.Add(m.cost)
}

// Evaluator runs the embedded software routine: it reads raw counters from
// a block's register file and turns them into pass/fail verdicts using only
// metered integer operations against the precomputed critical values. The
// default word size is 16 bits (the paper's platform); a wider word size
// meters the same routine on a 32- or 64-bit core. Bus READs always count
// 16-bit words — the register-file interface width is a hardware property.
//
// Evaluate and EvaluateInto meter the pass; EvaluateVerdicts runs the
// same routine unmetered, for callers that need only the verdicts.
//
// An Evaluator reads each bank of the design's register map with one
// RegFile.ReadRange call, at the entry ranges the critical values took
// from the map. A block built on the critical values' map is their design
// by construction; a block built on another map is compared with the
// design once, and the evaluator remembers the last such map. It is not
// safe for concurrent use: each core.Monitor owns its own, and one-off
// callers (internal/tables) build a fresh one per call.
type Evaluator struct {
	cv    *CriticalValues
	wide  uint             // the meters' word size, as meter.wide
	other *hwblock.RegMap  // the last map of another construction found to be cv's design
	rf    *hwblock.RegFile // the register file of the pass in flight
	bus   int              // the bus words the pass in flight has read
	buf   []uint64         // one bank's values, sized to the largest bank
}

// NewEvaluator returns an evaluator bound to one set of critical values,
// metering at the paper's 16-bit word size.
func NewEvaluator(cv *CriticalValues) *Evaluator {
	return newEvaluator(cv, 0)
}

// NewEvaluatorWordSize returns an evaluator metering at the given word size
// (WordSize16, WordSize32 or WordSize64).
func NewEvaluatorWordSize(cv *CriticalValues, wordBits int) (*Evaluator, error) {
	switch wordBits {
	case WordSize16, WordSize32, WordSize64:
		return newEvaluator(cv, wideShift(wordBits)), nil
	}
	return nil, fmt.Errorf("sweval: unsupported word size %d", wordBits)
}

func newEvaluator(cv *CriticalValues, wide uint) *Evaluator {
	bk := &cv.banks
	widest := max(bk.Walk.N, bk.BlockFreq.N, bk.LongestRun.N, bk.NonOverlap.N, bk.Overlap.N, bk.Serial[0].N)
	return &Evaluator{cv: cv, wide: wide, buf: make([]uint64, widest)}
}

// read issues the bus reads of bank bk, counts them, charges them to m and
// returns the bank's values in the evaluator's scratch, valid until the
// next read.
func (ev *Evaluator) read(m *meter, bk hwblock.Bank) []uint64 {
	vals := ev.buf[:bk.N]
	words := ev.rf.ReadRange(bk.First, vals)
	ev.bus += words
	m.read(words)
	return vals
}

// Evaluate performs one metered software pass over the block's register
// file into a newly allocated report. The block must have absorbed a full sequence.
func (ev *Evaluator) Evaluate(b *hwblock.Block) (*Report, error) {
	rep := new(Report)
	if err := ev.EvaluateInto(b, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// EvaluateInto performs one metered software pass over the block's
// register file and writes its verdicts into rep, replacing what rep held
// and reusing rep.Verdicts when its capacity holds one verdict per test.
// Every check that can fail runs before the first write, so an error
// leaves rep untouched. The block must have absorbed a full sequence.
func (ev *Evaluator) EvaluateInto(b *hwblock.Block, rep *Report) error {
	return ev.evaluate(b, rep, true)
}

// EvaluateVerdicts is EvaluateInto without the meter: the same routine
// reaches the same verdicts and reads the same bus words (rep.BusWords),
// but charges nothing, so rep.Cost and every verdict's Cost are zero.
func (ev *Evaluator) EvaluateVerdicts(b *hwblock.Block, rep *Report) error {
	return ev.evaluate(b, rep, false)
}

// evaluate is the software pass, metered when metered is set.
func (ev *Evaluator) evaluate(b *hwblock.Block, rep *Report, metered bool) error {
	if !b.Done() {
		return fmt.Errorf("sweval: hardware block has only seen %d of %d bits", b.BitsSeen(), b.N())
	}
	if bm := b.RegMap(); bm != ev.cv.regs && bm != ev.other {
		if err := ev.cv.cfg.CheckSame(bm.Config()); err != nil {
			return fmt.Errorf("sweval: critical values are for design %s, the block differs: %w", ev.cv.cfg.Name, err)
		}
		ev.other = bm
	}
	ev.rf, ev.bus = b.RegFile(), 0
	// The block is the design the critical values were built for: read
	// its tests and parameters in place, without copying the Config.
	cfg := &ev.cv.cfg
	regs := &ev.cv.banks
	if cap(rep.Verdicts) < len(cfg.Tests) {
		rep.Verdicts = make([]Verdict, 0, len(cfg.Tests))
	}
	rep.Verdicts, rep.Cost = rep.Verdicts[:0], Cost{}
	n := int64(cfg.N)

	// Shared walk values, charged to test 13 (their home) as in the
	// paper's unified register map.
	mWalk := meter{wide: ev.wide, off: !metered}
	walk := ev.read(&mWalk, regs.Walk)
	sMaxRaw, sMinRaw, sFinRaw := int64(walk[0]), int64(walk[1]), int64(walk[2])
	// Recenter the offset-binary values: S = raw − n.
	sMax := mWalk.sub(sMaxRaw, n)
	sMin := mWalk.sub(sMinRaw, n)
	sFin := mWalk.sub(sFinRaw, n)
	// The omitted-counter trick: N_ones = raw/2 (raw = S+n = 2·ones).
	ones := mWalk.shr(sFinRaw, 1)
	zeros := mWalk.sub(n, ones)

	for _, id := range cfg.Tests {
		m := meter{wide: ev.wide, off: !metered}
		switch id {
		case 1:
			absS := sFin
			if m.cmpGreater(0, absS) {
				absS = m.sub(0, absS)
			}
			pass := !m.cmpGreater(absS, ev.cv.monobitSMax)
			rep.add(&m, 1, pass, absS, ev.cv.monobitSMax, "")

		case 2:
			bigM := int64(cfg.Params.BlockFrequencyM)
			var d int64
			for _, eps := range ev.read(&m, regs.BlockFreq) {
				dev := m.sub(m.shl(int64(eps), 1), bigM) // 2ε − M
				d = m.add(d, m.sqr(dev))
			}
			pass := !m.cmpGreater(d, ev.cv.blockFreqMax)
			rep.add(&m, 2, pass, d, ev.cv.blockFreqMax, "")

		case 3:
			v := int64(ev.read(&m, regs.Runs)[0])
			pass, stat, threshold, note := ev.evalRuns(&m, n, sFin, ones, zeros, v)
			rep.add(&m, 3, pass, stat, threshold, note)

		case 4:
			var sum int64
			for k, nu := range ev.read(&m, regs.LongestRun) {
				sum = m.add(sum, m.mul(m.sqr(int64(nu)), ev.cv.longestRunQ16[k]))
			}
			pass := !m.cmpGreater(sum, ev.cv.longestRunMax)
			rep.add(&m, 4, pass, sum, ev.cv.longestRunMax, "")

		case 7:
			tm := cfg.Params.TemplateM
			blockLen := int64(cfg.N / cfg.Params.NonOverlappingN)
			muScaled := m.sub(blockLen, int64(tm-1)) // μ·2^m = M − m + 1
			var d int64
			for _, w := range ev.read(&m, regs.NonOverlap) {
				dev := m.sub(m.shl(int64(w), uint(tm)), muScaled)
				d = m.add(d, m.sqr(dev))
			}
			pass := !m.cmpGreater(d, ev.cv.nonOvMax)
			rep.add(&m, 7, pass, d, ev.cv.nonOvMax, "")

		case 8:
			var sum int64
			for k, nu := range ev.read(&m, regs.Overlap) {
				sum = m.add(sum, m.mul(m.sqr(int64(nu)), ev.cv.overlapQ16[k]))
			}
			pass := !m.cmpGreater(sum, ev.cv.overlapMax)
			rep.add(&m, 8, pass, sum, ev.cv.overlapMax, "")

		case 11:
			sm := cfg.Params.SerialM
			a := ev.sumSquares(&m, regs.Serial[0])
			a1 := ev.sumSquares(&m, regs.Serial[1])
			a2 := ev.sumSquares(&m, regs.Serial[2])
			// n·∇ψ² = 2^m·A_m − 2^{m−1}·A_{m−1}
			x1 := m.sub(m.shl(a, uint(sm)), m.shl(a1, uint(sm-1)))
			// n·∇²ψ² = 2^m·A_m − 2^m·A_{m−1} + 2^{m−2}·A_{m−2}
			x2 := m.add(m.sub(m.shl(a, uint(sm)), m.shl(a1, uint(sm))), m.shl(a2, uint(sm-2)))
			fail1 := m.cmpGreater(x1, ev.cv.serialMax1)
			fail2 := m.cmpGreater(x2, ev.cv.serialMax2)
			note := ""
			switch {
			case fail1 && fail2:
				note = "del-psi2 del2-psi2"
			case fail1:
				note = "del-psi2"
			case fail2:
				note = " del2-psi2"
			}
			rep.add(&m, 11, !fail1 && !fail2, x1, ev.cv.serialMax1, note)

		case 12:
			// φ_m in Q16 via the PWL table, reusing the serial counters
			// (m−1 = 3-bit and m = 4-bit banks for SerialM = 4).
			phi4 := ev.phiQ16(&m, cfg.N, regs.Serial[0])
			phi3 := ev.phiQ16(&m, cfg.N, regs.Serial[1])
			apen := m.sub(phi3, phi4)
			pass := !m.cmpGreater(ev.cv.apenMinQ16, apen)
			rep.add(&m, 12, pass, apen, ev.cv.apenMinQ16, "")

		case 13:
			m := &mWalk // inherits the shared walk reads
			// Forward: z = max(S_max, −S_min).
			zf := sMax
			negMin := m.sub(0, sMin)
			if m.cmpGreater(negMin, zf) {
				zf = negMin
			}
			// Backward: z = max(S_final − S_min, S_max − S_final).
			zb := m.sub(sFin, sMin)
			alt := m.sub(sMax, sFin)
			if m.cmpGreater(alt, zb) {
				zb = alt
			}
			failF := !m.cmpGreater(ev.cv.cusumZMin, zf) // zf ≥ zMin
			failB := !m.cmpGreater(ev.cv.cusumZMin, zb)
			note := ""
			switch {
			case failF && failB:
				note = "forward backward"
			case failF:
				note = "forward"
			case failB:
				note = " backward"
			}
			z := zf
			if zb > z {
				z = zb
			}
			rep.add(m, 13, !failF && !failB, z, ev.cv.cusumZMin, note)
		}
	}
	rep.BusWords = ev.bus
	return nil
}

// evalRuns dispatches on the configured runs-test method and returns the
// test 3 verdict's fields.
func (ev *Evaluator) evalRuns(m *meter, n, sFin, ones, zeros, v int64) (pass bool, stat, threshold int64, note string) {
	absS := sFin
	if m.cmpGreater(0, absS) {
		absS = m.sub(0, absS)
	}
	// Frequency precondition: |S| ≥ 4√n means instant failure.
	if !m.cmpGreater(ev.cv.runsPreSAbs, absS) {
		return false, v, 0, "precondition"
	}
	switch ev.cv.runsMethod {
	case RunsExact:
		// |n·V − 2·ones·zeros| > (kQ16·ones·zeros) >> 16 ?
		lhs := m.sub(m.mul(n, v), m.shl(m.mul(ones, zeros), 1))
		if m.cmpGreater(0, lhs) {
			lhs = m.sub(0, lhs)
		}
		rhs := m.shr(m.mul(ev.cv.runsKQ16, m.mul(ones, zeros)), pwlFracBits)
		return !m.cmpGreater(lhs, rhs), lhs, rhs, ""
	default: // RunsTable
		for _, row := range ev.cv.runsRows {
			if m.cmpGreater(absS, row.sAbsMax) {
				continue
			}
			failLo := m.cmpGreater(row.vLo, v)
			failHi := m.cmpGreater(v, row.vHi)
			return !failLo && !failHi, v, row.vHi, ""
		}
		// Beyond the last row (cannot happen when the precondition
		// passed, kept for safety): reject.
		return false, v, 0, "table overflow"
	}
}

// sumSquares reads every pattern counter of one serial bank and
// accumulates Σν².
func (ev *Evaluator) sumSquares(m *meter, bk hwblock.Bank) int64 {
	var sum int64
	for _, nu := range ev.read(m, bk) {
		sum = m.add(sum, m.sqr(int64(nu)))
	}
	return sum
}

// phiQ16 computes φ_w = Σ (ν/n)·ln(ν/n) in Q16 through the PWL table over
// one serial bank. n is a power of two, so ν/n in Q16 is a single shift.
func (ev *Evaluator) phiQ16(m *meter, n int, bk hwblock.Bank) int64 {
	logN := uint(bits.Len(uint(n - 1)))
	var phi int64
	for _, nu := range ev.read(m, bk) {
		if nu == 0 {
			continue
		}
		var xQ16 int64
		if logN >= pwlFracBits {
			xQ16 = m.shr(int64(nu), logN-pwlFracBits)
		} else {
			xQ16 = m.shl(int64(nu), pwlFracBits-logN)
		}
		phi = m.add(phi, ev.cv.pwl.evalQ16(m, xQ16))
	}
	return phi
}
