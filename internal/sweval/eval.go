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
	// Cost is the instruction count this test's routine spent. The shared
	// random-walk reads (S_MAX, S_MIN, S_FINAL) are charged to test 13,
	// their home in the paper's unified register map.
	Cost Cost
}

// Report is the result of one full software evaluation pass over the
// register file.
type Report struct {
	// Verdicts holds one entry per implemented test, ascending by TestID.
	Verdicts []Verdict
	// Cost is the total instruction count of the pass, in the paper's
	// Table III categories: the sum of the verdicts' costs.
	Cost Cost
}

// Pass reports whether every implemented test accepted.
func (r *Report) Pass() bool {
	for _, v := range r.Verdicts {
		if !v.Pass {
			return false
		}
	}
	return true
}

// Failed lists the test numbers that rejected.
func (r *Report) Failed() []int {
	var out []int
	for _, v := range r.Verdicts {
		if !v.Pass {
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

// add appends a verdict carrying the cost its routine metered.
func (r *Report) add(m *meter, v Verdict) {
	v.Cost = m.cost
	r.Verdicts = append(r.Verdicts, v)
	r.Cost.Add(m.cost)
}

// Evaluator runs the embedded software routine: it reads raw counters from
// a block's register file and turns them into pass/fail verdicts using only
// metered integer operations against the precomputed critical values. The
// default word size is 16 bits (the paper's platform); a wider word size
// meters the same routine on a 32- or 64-bit core. Bus READs always count
// 16-bit words — the register-file interface width is a hardware property.
//
// An Evaluator resolves the design's register names to register-file
// entries on its first pass over a block and reads by index after that,
// resolving again only when it meets a different block. It is not safe for
// concurrent use: each core.Monitor owns its own, and one-off callers
// (internal/tables) build a fresh one per call.
type Evaluator struct {
	cv       *CriticalValues
	wordBits int
	regs     regMap
}

// regMap holds the register-file entry indices one pass reads, resolved
// against the register file rf.
type regMap struct {
	rf                     *hwblock.RegFile
	sMax, sMin, sFin, runs int32
	bf, lr, no, ov         []int32    // BF_EPS_i, LR_NU_i, NO_W_i, OV_NU_i
	serial                 [3][]int32 // SERIAL_NUw_pattern for w = SerialM − k at [k]
}

// NewEvaluator returns an evaluator bound to one set of critical values,
// metering at the paper's 16-bit word size.
func NewEvaluator(cv *CriticalValues) *Evaluator {
	return &Evaluator{cv: cv, wordBits: WordSize16}
}

// NewEvaluatorWordSize returns an evaluator metering at the given word size
// (WordSize16, WordSize32 or WordSize64).
func NewEvaluatorWordSize(cv *CriticalValues, wordBits int) (*Evaluator, error) {
	switch wordBits {
	case WordSize16, WordSize32, WordSize64:
		return &Evaluator{cv: cv, wordBits: wordBits}, nil
	}
	return nil, fmt.Errorf("sweval: unsupported word size %d", wordBits)
}

// resolve looks up every register the block's tests read in its register
// file, unless the evaluator already holds that file's indices. A missing
// register is an error and leaves the previous resolution in place.
func (ev *Evaluator) resolve(b *hwblock.Block) error {
	rf := b.RegFile()
	if ev.regs.rf == rf {
		return nil
	}
	var missing string
	index := func(name string) int32 {
		i, ok := rf.Index(name)
		if !ok && missing == "" {
			missing = name
		}
		return int32(i)
	}
	bank := func(count int, format string) []int32 {
		out := make([]int32, count)
		for i := range out {
			out[i] = index(fmt.Sprintf(format, i))
		}
		return out
	}
	cfg := b.Config()
	r := regMap{rf: rf, sMax: index("S_MAX"), sMin: index("S_MIN"), sFin: index("S_FINAL")}
	for _, id := range cfg.Tests {
		switch id {
		case 2:
			r.bf = bank(cfg.N/cfg.Params.BlockFrequencyM, "BF_EPS_%d")
		case 3:
			r.runs = index("N_RUNS")
		case 4:
			r.lr = bank(len(ev.cv.longestRunQ16), "LR_NU_%d")
		case 7:
			r.no = bank(cfg.Params.NonOverlappingN, "NO_W_%d")
		case 8:
			r.ov = bank(len(ev.cv.overlapQ16), "OV_NU_%d")
		case 11, 12:
			// One set of pattern counters serves both tests; the
			// hardware always exposes all three banks.
			if r.serial[0] != nil {
				continue
			}
			for k := range r.serial {
				w := cfg.Params.SerialM - k
				r.serial[k] = bank(1<<uint(w), fmt.Sprintf("SERIAL_NU%d_%%0%db", w, w))
			}
		}
	}
	if missing != "" {
		return fmt.Errorf("sweval: design %s has no register %q", cfg.Name, missing)
	}
	ev.regs = r
	return nil
}

// read issues the bus reads of the register at entry index i and charges
// them to m.
func (ev *Evaluator) read(m *meter, i int32) int64 {
	v, busReads := ev.regs.rf.ReadIndex(int(i))
	m.read(busReads)
	return int64(v)
}

// Evaluate performs one software pass over the block's register file. The
// block must have absorbed a full sequence.
func (ev *Evaluator) Evaluate(b *hwblock.Block) (*Report, error) {
	if !b.Done() {
		return nil, fmt.Errorf("sweval: hardware block has only seen %d of %d bits", b.BitsSeen(), b.Config().N)
	}
	if b.Config().Name != ev.cv.cfg.Name {
		return nil, fmt.Errorf("sweval: critical values are for design %s, block is %s", ev.cv.cfg.Name, b.Config().Name)
	}
	if err := ev.resolve(b); err != nil {
		return nil, err
	}
	cfg := b.Config()
	regs := &ev.regs
	rep := &Report{Verdicts: make([]Verdict, 0, len(cfg.Tests))}
	n := int64(cfg.N)

	// Shared walk values, charged to test 13 (their home) as in the
	// paper's unified register map.
	mWalk := meter{wordBits: ev.wordBits}
	sMaxRaw := ev.read(&mWalk, regs.sMax)
	sMinRaw := ev.read(&mWalk, regs.sMin)
	sFinRaw := ev.read(&mWalk, regs.sFin)
	// Recenter the offset-binary values: S = raw − n.
	sMax := mWalk.sub(sMaxRaw, n)
	sMin := mWalk.sub(sMinRaw, n)
	sFin := mWalk.sub(sFinRaw, n)
	// The omitted-counter trick: N_ones = raw/2 (raw = S+n = 2·ones).
	ones := mWalk.shr(sFinRaw, 1)
	zeros := mWalk.sub(n, ones)

	for _, id := range cfg.Tests {
		m := meter{wordBits: ev.wordBits}
		switch id {
		case 1:
			absS := sFin
			if m.cmpGreater(0, absS) {
				absS = m.sub(0, absS)
			}
			pass := !m.cmpGreater(absS, ev.cv.monobitSMax)
			rep.add(&m, Verdict{TestID: 1, Pass: pass, Statistic: absS, Threshold: ev.cv.monobitSMax})

		case 2:
			bigM := int64(cfg.Params.BlockFrequencyM)
			var d int64
			for _, i := range regs.bf {
				eps := ev.read(&m, i)
				dev := m.sub(m.shl(eps, 1), bigM) // 2ε − M
				d = m.add(d, m.sqr(dev))
			}
			pass := !m.cmpGreater(d, ev.cv.blockFreqMax)
			rep.add(&m, Verdict{TestID: 2, Pass: pass, Statistic: d, Threshold: ev.cv.blockFreqMax})

		case 3:
			v := ev.read(&m, regs.runs)
			rep.add(&m, ev.evalRuns(&m, n, sFin, ones, zeros, v))

		case 4:
			var sum int64
			for k, i := range regs.lr {
				nu := ev.read(&m, i)
				sum = m.add(sum, m.mul(m.sqr(nu), ev.cv.longestRunQ16[k]))
			}
			pass := !m.cmpGreater(sum, ev.cv.longestRunMax)
			rep.add(&m, Verdict{TestID: 4, Pass: pass, Statistic: sum, Threshold: ev.cv.longestRunMax})

		case 7:
			tm := cfg.Params.TemplateM
			blockLen := int64(cfg.N / cfg.Params.NonOverlappingN)
			muScaled := m.sub(blockLen, int64(tm-1)) // μ·2^m = M − m + 1
			var d int64
			for _, i := range regs.no {
				w := ev.read(&m, i)
				dev := m.sub(m.shl(w, uint(tm)), muScaled)
				d = m.add(d, m.sqr(dev))
			}
			pass := !m.cmpGreater(d, ev.cv.nonOvMax)
			rep.add(&m, Verdict{TestID: 7, Pass: pass, Statistic: d, Threshold: ev.cv.nonOvMax})

		case 8:
			var sum int64
			for k, i := range regs.ov {
				nu := ev.read(&m, i)
				sum = m.add(sum, m.mul(m.sqr(nu), ev.cv.overlapQ16[k]))
			}
			pass := !m.cmpGreater(sum, ev.cv.overlapMax)
			rep.add(&m, Verdict{TestID: 8, Pass: pass, Statistic: sum, Threshold: ev.cv.overlapMax})

		case 11:
			sm := cfg.Params.SerialM
			a := ev.sumSquares(&m, regs.serial[0])
			a1 := ev.sumSquares(&m, regs.serial[1])
			a2 := ev.sumSquares(&m, regs.serial[2])
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
			rep.add(&m, Verdict{TestID: 11, Pass: !fail1 && !fail2, Statistic: x1, Threshold: ev.cv.serialMax1, Note: note})

		case 12:
			// φ_m in Q16 via the PWL table, reusing the serial counters
			// (m−1 = 3-bit and m = 4-bit banks for SerialM = 4).
			phi4 := ev.phiQ16(&m, cfg.N, regs.serial[0])
			phi3 := ev.phiQ16(&m, cfg.N, regs.serial[1])
			apen := m.sub(phi3, phi4)
			pass := !m.cmpGreater(ev.cv.apenMinQ16, apen)
			rep.add(&m, Verdict{TestID: 12, Pass: pass, Statistic: apen, Threshold: ev.cv.apenMinQ16})

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
			rep.add(m, Verdict{TestID: 13, Pass: !failF && !failB, Statistic: z, Threshold: ev.cv.cusumZMin, Note: note})

		default:
			return nil, fmt.Errorf("sweval: no software routine for test %d", id)
		}
	}
	return rep, nil
}

// evalRuns dispatches on the configured runs-test method.
func (ev *Evaluator) evalRuns(m *meter, n, sFin, ones, zeros, v int64) Verdict {
	absS := sFin
	if m.cmpGreater(0, absS) {
		absS = m.sub(0, absS)
	}
	// Frequency precondition: |S| ≥ 4√n means instant failure.
	if !m.cmpGreater(ev.cv.runsPreSAbs, absS) {
		return Verdict{TestID: 3, Pass: false, Statistic: v, Note: "precondition"}
	}
	switch ev.cv.runsMethod {
	case RunsExact:
		// |n·V − 2·ones·zeros| > (kQ16·ones·zeros) >> 16 ?
		lhs := m.sub(m.mul(n, v), m.shl(m.mul(ones, zeros), 1))
		if m.cmpGreater(0, lhs) {
			lhs = m.sub(0, lhs)
		}
		rhs := m.shr(m.mul(ev.cv.runsKQ16, m.mul(ones, zeros)), pwlFracBits)
		pass := !m.cmpGreater(lhs, rhs)
		return Verdict{TestID: 3, Pass: pass, Statistic: lhs, Threshold: rhs}
	default: // RunsTable
		for _, row := range ev.cv.runsRows {
			if m.cmpGreater(absS, row.sAbsMax) {
				continue
			}
			failLo := m.cmpGreater(row.vLo, v)
			failHi := m.cmpGreater(v, row.vHi)
			return Verdict{TestID: 3, Pass: !failLo && !failHi, Statistic: v, Threshold: row.vHi}
		}
		// Beyond the last row (cannot happen when the precondition
		// passed, kept for safety): reject.
		return Verdict{TestID: 3, Pass: false, Statistic: v, Note: "table overflow"}
	}
}

// sumSquares reads every pattern counter of one serial bank and
// accumulates Σν².
func (ev *Evaluator) sumSquares(m *meter, bank []int32) int64 {
	var sum int64
	for _, i := range bank {
		sum = m.add(sum, m.sqr(ev.read(m, i)))
	}
	return sum
}

// phiQ16 computes φ_w = Σ (ν/n)·ln(ν/n) in Q16 through the PWL table over
// one serial bank. n is a power of two, so ν/n in Q16 is a single shift.
func (ev *Evaluator) phiQ16(m *meter, n int, bank []int32) int64 {
	logN := uint(bits.Len(uint(n - 1)))
	var phi int64
	for _, i := range bank {
		nu := ev.read(m, i)
		if nu == 0 {
			continue
		}
		var xQ16 int64
		if logN >= pwlFracBits {
			xQ16 = m.shr(nu, logN-pwlFracBits)
		} else {
			xQ16 = m.shl(nu, pwlFracBits-logN)
		}
		phi = m.add(phi, ev.cv.pwl.evalQ16(m, xQ16))
	}
	return phi
}
