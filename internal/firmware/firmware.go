// Package firmware generates and runs the MSP430 evaluation firmware: the
// software half of the paper's split, compiled to real (simulated) 16-bit
// machine code instead of the instruction-count model of internal/sweval.
// It exists for the paper's latency evaluation ("we utilize openMSP430 as
// the hardware platform to evaluate our design", Table IV): running the
// routine on the internal/msp430 core yields a cycle count comparable to
// the latency column of Table IV.
//
// The generator covers the light test set (tests 1, 2, 3, 4, 13 — the five
// quick-failure tests) for all three sequence lengths; the 2^20-bit design
// uses a 48-bit accumulator for the block-frequency sum (three-word
// arithmetic on the 16-bit core).
//
//trnglint:bus16
package firmware

import (
	"fmt"
	"strings"

	"repro/internal/hwblock"
	"repro/internal/msp430"
	"repro/internal/sweval"
)

// Memory map of the generated firmware.
const (
	// CodeBase is the load address of the routine.
	CodeBase = 0x4400
	// StackTop is the initial stack pointer.
	StackTop = 0x2400
	// ResultAddr receives the failure bitmap: bit 0 = test 1 failed,
	// bit 1 = test 2, bit 2 = test 3, bit 3 = test 4, bit 4 = test 13.
	ResultAddr = 0x0220
	// MulBase is the hardware multiplier peripheral base.
	MulBase = 0x0130
	// TBBase is the testing-block register-file window base.
	TBBase = 0x0180
)

// Failure bitmap bits.
const (
	FailMonobit    = 1 << 0
	FailBlockFreq  = 1 << 1
	FailRuns       = 1 << 2
	FailLongestRun = 1 << 3
	FailCusum      = 1 << 4
)

// generator carries codegen state.
type gen struct {
	b      strings.Builder
	labels int
	cfg    hwblock.Config
	regs   *hwblock.RegMap
}

func (g *gen) emit(format string, args ...interface{}) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

func (g *gen) label(prefix string) string {
	g.labels++
	return fmt.Sprintf("%s_%d", prefix, g.labels)
}

// valueAddr returns the bus address of a register-file value and its word
// count.
func (g *gen) valueAddr(name string) (uint16, int, error) {
	e, ok := g.regs.Lookup(name)
	if !ok {
		return 0, 0, fmt.Errorf("firmware: no register %q", name)
	}
	return TBBase + uint16(2*e.Addr), e.Words, nil
}

// load32 emits code loading a register-file value into a lo:hi register
// pair.
func (g *gen) load32(name, lo, hi string) error {
	addr, words, err := g.valueAddr(name)
	if err != nil {
		return err
	}
	g.emit(" mov &0x%04X, %s", addr, lo)
	if words == 2 {
		g.emit(" mov &0x%04X, %s", addr+2, hi)
	} else {
		g.emit(" clr %s", hi)
	}
	return nil
}

// gt32 emits an unsigned 32-bit "if lo:hi > c jump to target".
func (g *gen) gt32(lo, hi string, c int64, target string) {
	below := g.label("le")
	cLo := uint16(c)
	cHi := uint16(c >> 16)
	g.emit(" cmp #0x%04X, %s", cHi, hi)
	g.emit(" jlo %s", below) // hi < cHi → not greater
	g.emit(" jne %s", target)
	g.emit(" cmp #0x%04X, %s", cLo, lo)
	g.emit(" jlo %s", below)
	g.emit(" jeq %s", below)
	g.emit(" jmp %s", target)
	g.emit("%s:", below)
}

// gt48 emits an unsigned 48-bit "if lo:mid:hi > c jump to target".
func (g *gen) gt48(lo, mid, hi string, c int64, target string) {
	below := g.label("le")
	cLo := uint16(c)
	cMid := uint16(c >> 16)
	cHi := uint16(c >> 32)
	g.emit(" cmp #0x%04X, %s", cHi, hi)
	g.emit(" jlo %s", below)
	g.emit(" jne %s", target)
	g.emit(" cmp #0x%04X, %s", cMid, mid)
	g.emit(" jlo %s", below)
	g.emit(" jne %s", target)
	g.emit(" cmp #0x%04X, %s", cLo, lo)
	g.emit(" jlo %s", below)
	g.emit(" jeq %s", below)
	g.emit(" jmp %s", target)
	g.emit("%s:", below)
}

// Generate produces the evaluation routine's assembly source for a light
// (or richer — extra tests are ignored) design configuration with the
// given critical values baked in as constants, reading the registers at
// the addresses of the design's register map.
func Generate(regs *hwblock.RegMap, cv *sweval.CriticalValues) (string, error) {
	c := cv.Constants()
	cfg := regs.Config()
	g := &gen{cfg: cfg, regs: regs}
	n := int64(cfg.N)

	// Sanity for the 32-bit longest-run accumulation (see lr loop).
	maxNu := int64(cfg.N / cfg.Params.LongestRunM)
	var maxQ int64
	for _, q := range c.LongestRunQ16 {
		if q > maxQ {
			maxQ = q
		}
	}
	if (maxNu*maxNu>>16)*maxQ >= 1<<16 {
		return "", fmt.Errorf("firmware: longest-run product exceeds 32-bit accumulation")
	}
	if maxQ >= 1<<16 {
		return "", fmt.Errorf("firmware: longest-run Q16 constant exceeds 16 bits")
	}

	g.emit(" .org 0x%04X", CodeBase)
	g.emit("entry:")
	g.emit(" clr r12 ; failure bitmap")

	// ---- Test 1: monobit. |S| = |S_raw − n| > C1 → fail.
	if err := g.load32("S_FINAL", "r6", "r7"); err != nil {
		return "", err
	}
	g.emit(" sub #0x%04X, r6", uint16(n))
	g.emit(" subc #0x%04X, r7", uint16(n>>16))
	g.emit(" call #abs32")
	// Stash |S| for the runs test.
	g.emit(" mov r6, &0x2300")
	g.emit(" mov r7, &0x2302")
	fail1 := g.label("fail1")
	done1 := g.label("done1")
	g.gt32("r6", "r7", c.MonobitSMax, fail1)
	g.emit(" jmp %s", done1)
	g.emit("%s:", fail1)
	g.emit(" bis #%d, r12", FailMonobit)
	g.emit("%s:", done1)

	// ---- Test 2: block frequency. D = Σ(2ε−M)², fail iff D > BFMAX.
	// For M ≤ 32768 the deviation fits the signed 16×16 multiplier and D
	// fits 32 bits; for M = 65536 (the 2^20 design) the deviation is
	// 17-bit and D needs a 48-bit accumulator — but |2ε−M| ≤ 2^16 with
	// the top value only at ε ∈ {0, M}, so the square decomposes as
	// dL² + [dH]·2^32 with dL the low 16 bits.
	if cfg.Has(2) {
		eps0, words, err := g.valueAddr("BF_EPS_0")
		if err != nil {
			return "", err
		}
		nBlocks := cfg.N / cfg.Params.BlockFrequencyM
		bigM := cfg.Params.BlockFrequencyM
		fail2 := g.label("fail2")
		done2 := g.label("done2")
		switch {
		case words == 1 && bigM <= 32768:
			g.emit(" mov #0x%04X, r10 ; &BF_EPS_0", eps0)
			g.emit(" mov #%d, r13", nBlocks)
			g.emit(" clr r8")
			g.emit(" clr r9")
			loop := g.label("bf")
			g.emit("%s:", loop)
			g.emit(" mov @r10+, r4")
			g.emit(" rla r4 ; 2ε")
			g.emit(" sub #%d, r4 ; − M", bigM)
			g.emit(" mov r4, &0x%04X ; MPYS", MulBase+msp430.MulMPYS)
			g.emit(" mov r4, &0x%04X ; OP2 (dev²)", MulBase+msp430.MulOP2)
			g.emit(" add &0x%04X, r8", MulBase+msp430.MulRESLO)
			g.emit(" addc &0x%04X, r9", MulBase+msp430.MulRESHI)
			g.emit(" dec r13")
			g.emit(" jnz %s", loop)
			g.gt32("r8", "r9", c.BlockFreqMax, fail2)
		case words == 2 && bigM == 65536:
			g.emit(" mov #0x%04X, r10 ; &BF_EPS_0", eps0)
			g.emit(" mov #%d, r13", nBlocks)
			g.emit(" clr r8  ; acc low")
			g.emit(" clr r9  ; acc mid")
			g.emit(" clr r11 ; acc high")
			loop := g.label("bf20")
			noDH := g.label("bfnodh")
			g.emit("%s:", loop)
			g.emit(" mov @r10+, r4 ; ε lo")
			g.emit(" mov @r10+, r5 ; ε hi")
			g.emit(" rla r4 ; 2ε (32-bit shift)")
			g.emit(" rlc r5")
			g.emit(" sub #0, r4 ; − 65536")
			g.emit(" subc #1, r5")
			g.emit(" mov r4, r6")
			g.emit(" mov r5, r7")
			g.emit(" call #abs32 ; |dev| = r7:r6, r7 is 0 or 1")
			g.emit(" mov r6, &0x%04X ; MPY (dL)", MulBase+msp430.MulMPY)
			g.emit(" mov r6, &0x%04X ; OP2 (dL²)", MulBase+msp430.MulOP2)
			g.emit(" add &0x%04X, r8", MulBase+msp430.MulRESLO)
			g.emit(" addc &0x%04X, r9", MulBase+msp430.MulRESHI)
			g.emit(" addc #0, r11")
			g.emit(" tst r7")
			g.emit(" jz %s", noDH)
			// |dev| = 2^16 exactly implies dL = 0: dev² = 2^32.
			g.emit(" add #1, r11")
			g.emit("%s:", noDH)
			g.emit(" dec r13")
			g.emit(" jnz %s", loop)
			g.gt48("r8", "r9", "r11", c.BlockFreqMax, fail2)
		default:
			return "", fmt.Errorf("firmware: unsupported block-frequency geometry (M=%d, %d words)", bigM, words)
		}
		g.emit(" jmp %s", done2)
		g.emit("%s:", fail2)
		g.emit(" bis #%d, r12", FailBlockFreq)
		g.emit("%s:", done2)
	}

	// ---- Test 3: runs, interval-table method. The table rows live in
	// ROM after the code (label rtab).
	if cfg.Has(3) {
		g.emit(" mov &0x2300, r6 ; |S|")
		g.emit(" mov &0x2302, r7")
		fail3 := g.label("fail3")
		done3 := g.label("done3")
		// Precondition: |S| ≥ pre ⟺ |S| > pre − 1.
		g.gt32("r6", "r7", c.RunsPreSAbs-1, fail3)
		if err := g.load32("N_RUNS", "r4", "r5"); err != nil {
			return "", err
		}
		g.emit(" mov #rtab, r10")
		rowLoop := g.label("row")
		rowSkip := g.label("skip")
		rowHit := g.label("hit")
		checkHi := g.label("chkhi")
		g.emit("%s:", rowLoop)
		g.emit(" mov @r10+, r8 ; sMax lo")
		g.emit(" mov @r10+, r9 ; sMax hi")
		// |S| ≤ sMax → hit.
		g.emit(" cmp r9, r7")
		g.emit(" jlo %s", rowHit)
		g.emit(" jne %s", rowSkip)
		g.emit(" cmp r8, r6")
		g.emit(" jlo %s", rowHit)
		g.emit(" jeq %s", rowHit)
		g.emit("%s:", rowSkip)
		g.emit(" add #8, r10 ; skip vLo/vHi")
		g.emit(" jmp %s", rowLoop)
		g.emit("%s:", rowHit)
		// V < vLo → fail.
		g.emit(" mov @r10+, r8 ; vLo lo")
		g.emit(" mov @r10+, r9 ; vLo hi")
		g.emit(" cmp r9, r5")
		g.emit(" jlo %s", fail3)
		g.emit(" jne %s", checkHi)
		g.emit(" cmp r8, r4")
		g.emit(" jlo %s", fail3)
		g.emit("%s:", checkHi)
		// V > vHi → fail.
		g.emit(" mov @r10+, r8 ; vHi lo")
		g.emit(" mov @r10+, r9 ; vHi hi")
		g.emit(" cmp r5, r9 ; vHi_hi − V_hi")
		g.emit(" jlo %s", fail3)
		g.emit(" jne %s", done3)
		g.emit(" cmp r4, r8")
		g.emit(" jlo %s", fail3)
		g.emit(" jmp %s", done3)
		g.emit("%s:", fail3)
		g.emit(" bis #%d, r12", FailRuns)
		g.emit("%s:", done3)
	}

	// ---- Test 4: longest run. Σ ν²·Q16 > LRMAX → fail.
	if cfg.Has(4) {
		nu0, words, err := g.valueAddr("LR_NU_0")
		if err != nil {
			return "", err
		}
		if words != 1 {
			return "", fmt.Errorf("firmware: expected 1-word class counts")
		}
		g.emit(" mov #0x%04X, r10 ; &LR_NU_0", nu0)
		g.emit(" mov #qtab, r11")
		g.emit(" mov #%d, r13", len(c.LongestRunQ16))
		g.emit(" clr r8")
		g.emit(" clr r9")
		loop := g.label("lr")
		g.emit("%s:", loop)
		g.emit(" mov @r10+, r4 ; ν")
		g.emit(" mov r4, &0x%04X ; MPY", MulBase+msp430.MulMPY)
		g.emit(" mov r4, &0x%04X ; OP2 (ν²)", MulBase+msp430.MulOP2)
		g.emit(" mov &0x%04X, r4 ; ν² lo", MulBase+msp430.MulRESLO)
		g.emit(" mov &0x%04X, r5 ; ν² hi", MulBase+msp430.MulRESHI)
		g.emit(" mov @r11+, r6 ; Q16")
		g.emit(" mov r4, &0x%04X", MulBase+msp430.MulMPY)
		g.emit(" mov r6, &0x%04X ; ν²lo × Q", MulBase+msp430.MulOP2)
		g.emit(" add &0x%04X, r8", MulBase+msp430.MulRESLO)
		g.emit(" addc &0x%04X, r9", MulBase+msp430.MulRESHI)
		g.emit(" mov r5, &0x%04X", MulBase+msp430.MulMPY)
		g.emit(" mov r6, &0x%04X ; ν²hi × Q", MulBase+msp430.MulOP2)
		g.emit(" add &0x%04X, r9 ; contribution << 16", MulBase+msp430.MulRESLO)
		g.emit(" dec r13")
		g.emit(" jnz %s", loop)
		fail4 := g.label("fail4")
		done4 := g.label("done4")
		g.gt32("r8", "r9", c.LongestRunMax, fail4)
		g.emit(" jmp %s", done4)
		g.emit("%s:", fail4)
		g.emit(" bis #%d, r12", FailLongestRun)
		g.emit("%s:", done4)
	}

	// ---- Test 13: cusum. Both excursions computed from the raw offset
	// values (all operands non-negative).
	fail13 := g.label("fail13")
	done13 := g.label("done13")
	// zf = max(S_max_raw − n, n − S_min_raw).
	if err := g.load32("S_MAX", "r6", "r7"); err != nil {
		return "", err
	}
	g.emit(" sub #0x%04X, r6", uint16(n))
	g.emit(" subc #0x%04X, r7", uint16(n>>16))
	if err := g.load32("S_MIN", "r4", "r5"); err != nil {
		return "", err
	}
	g.emit(" mov #0x%04X, r8", uint16(n))
	g.emit(" mov #0x%04X, r9", uint16(n>>16))
	g.emit(" sub r4, r8")
	g.emit(" subc r5, r9")
	g.emit(" call #maxu32")
	g.gt32("r6", "r7", c.CusumZMin-1, fail13)
	// zb = max(S_fin_raw − S_min_raw, S_max_raw − S_fin_raw).
	if err := g.load32("S_FINAL", "r6", "r7"); err != nil {
		return "", err
	}
	sminAddr, sminWords, err := g.valueAddr("S_MIN")
	if err != nil {
		return "", err
	}
	g.emit(" sub &0x%04X, r6", sminAddr)
	if sminWords == 2 {
		g.emit(" subc &0x%04X, r7", sminAddr+2)
	} else {
		g.emit(" subc #0, r7")
	}
	if err := g.load32("S_MAX", "r8", "r9"); err != nil {
		return "", err
	}
	sfinAddr, sfinWords, err := g.valueAddr("S_FINAL")
	if err != nil {
		return "", err
	}
	g.emit(" sub &0x%04X, r8", sfinAddr)
	if sfinWords == 2 {
		g.emit(" subc &0x%04X, r9", sfinAddr+2)
	} else {
		g.emit(" subc #0, r9")
	}
	g.emit(" call #maxu32")
	g.gt32("r6", "r7", c.CusumZMin-1, fail13)
	g.emit(" jmp %s", done13)
	g.emit("%s:", fail13)
	g.emit(" bis #%d, r12", FailCusum)
	g.emit("%s:", done13)

	// Publish the bitmap and halt.
	g.emit(" mov r12, &0x%04X", ResultAddr)
	g.emit(" bis #0x10, sr ; CPUOFF")

	// Subroutines.
	g.emit("abs32:")
	g.emit(" tst r7")
	g.emit(" jge abs_ret")
	g.emit(" inv r6")
	g.emit(" inv r7")
	g.emit(" add #1, r6")
	g.emit(" addc #0, r7")
	g.emit("abs_ret: ret")

	g.emit("maxu32: ; r6:r7 = maxu(r6:r7, r8:r9)")
	g.emit(" cmp r9, r7")
	g.emit(" jlo max_take")
	g.emit(" jne max_ret")
	g.emit(" cmp r8, r6")
	g.emit(" jhs max_ret")
	g.emit("max_take:")
	g.emit(" mov r8, r6")
	g.emit(" mov r9, r7")
	g.emit("max_ret: ret")

	// Constant tables.
	if cfg.Has(3) {
		g.emit("rtab:")
		for _, row := range c.RunsRows {
			vLo := row.VLo
			if vLo < 0 {
				vLo = 0
			}
			g.emit(" .word 0x%04X, 0x%04X, 0x%04X, 0x%04X, 0x%04X, 0x%04X",
				uint16(row.SAbsMax), uint16(row.SAbsMax>>16),
				uint16(vLo), uint16(vLo>>16),
				uint16(row.VHi), uint16(row.VHi>>16))
		}
	}
	if cfg.Has(4) {
		g.emit("qtab:")
		for _, q := range c.LongestRunQ16 {
			g.emit(" .word 0x%04X", uint16(q))
		}
	}
	return g.b.String(), nil
}

// Result is the outcome of one firmware run.
type Result struct {
	// FailBitmap is the failure bitmap the routine wrote to ResultAddr.
	FailBitmap uint16
	// Cycles is the cycle count of the evaluation routine.
	Cycles int64
	// Instructions is the retired instruction count.
	Instructions int64
}

// Pass reports whether all five tests accepted.
func (r Result) Pass() bool { return r.FailBitmap == 0 }

// Run assembles the routine for the block's design, attaches the block's
// register file and a hardware multiplier to a fresh CPU, executes to halt,
// and returns the verdict bitmap plus the cycle count — the quantity the
// paper's Table IV latency row measures.
func Run(b *hwblock.Block, cv *sweval.CriticalValues) (Result, string, error) {
	src, err := Generate(b.RegMap(), cv)
	if err != nil {
		return Result{}, "", err
	}
	prog, err := msp430.Assemble(src)
	if err != nil {
		return Result{}, src, fmt.Errorf("firmware: assembly failed: %w", err)
	}
	cpu := msp430.New()
	if err := cpu.MapPeripheral(MulBase, 0x10, &msp430.Multiplier{}); err != nil {
		return Result{}, src, err
	}
	port := msp430.NewTestingBlockPort(b.RegFile())
	if err := cpu.MapPeripheral(TBBase, (port.WindowSize()+1)&^1, port); err != nil {
		return Result{}, src, err
	}
	cpu.LoadImage(prog.Origin, prog.Words)
	cpu.SetReg(msp430.PC, prog.Entry("entry"))
	cpu.SetReg(msp430.SP, StackTop)
	steps := 0
	for !cpu.Halted() {
		if _, err := cpu.Step(); err != nil {
			return Result{}, src, err
		}
		steps++
		if steps > 1_000_000 {
			return Result{}, src, fmt.Errorf("firmware: runaway execution")
		}
	}
	return Result{
		FailBitmap:   cpu.ReadWord(ResultAddr),
		Cycles:       cpu.Cycles(),
		Instructions: int64(steps),
	}, src, nil
}
