package firmware

import (
	"fmt"
	"strings"

	"repro/internal/hwblock"
	"repro/internal/rv32"
	"repro/internal/sweval"
)

// This file generates the evaluation routine for the RV32 open core — the
// paper's future-work target ("testing the software implementations on
// different types of micro-controllers and open-core processors"). The
// register-file bus stays 16 bits wide (a hardware property), but every
// assembled value fits one 32-bit register, so the routine needs no
// multi-word arithmetic except the 64-bit accumulators for the
// sum-of-squares statistics (mul/mulhu pairs).

// RV32 memory map.
const (
	// RV32CodeBase is the load address.
	RV32CodeBase = 0x1000
	// RV32TBBase is the testing-block window: word w of the register
	// file appears zero-extended at RV32TBBase + 4·w.
	RV32TBBase = 0x40000
	// RV32ResultAddr receives the failure bitmap (same bit layout as the
	// MSP430 firmware).
	RV32ResultAddr = 0x50000
)

// rvGen carries RV32 codegen state.
type rvGen struct {
	b      strings.Builder
	labels int
	regs   *hwblock.RegMap
}

func (g *rvGen) emit(format string, args ...interface{}) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

func (g *rvGen) label(prefix string) string {
	g.labels++
	return fmt.Sprintf("%s_%d", prefix, g.labels)
}

// loadVal emits code loading a register-file value into reg, via one or two
// 16-bit bus reads. s1 must hold RV32TBBase.
func (g *rvGen) loadVal(name, reg string) error {
	e, ok := g.regs.Lookup(name)
	if !ok {
		return fmt.Errorf("firmware: no register %q", name)
	}
	g.emit(" lw %s, %d(s1)", reg, 4*e.Addr)
	if e.Words == 2 {
		g.emit(" lw t6, %d(s1)", 4*(e.Addr+1))
		g.emit(" slli t6, t6, 16")
		g.emit(" or %s, %s, t6", reg, reg)
	}
	return nil
}

// li emits a load-immediate of a possibly-wide constant.
func (g *rvGen) li(reg string, v int64) {
	g.emit(" li %s, %d", reg, int32(v))
}

// gt64 emits "if (hi:lo) > c, jump to target" for a 64-bit accumulator in
// two registers.
func (g *rvGen) gt64(lo, hi string, c int64, target string) {
	below := g.label("le")
	cLo := int64(uint32(c))
	cHi := c >> 32
	g.li("t5", cHi)
	g.emit(" bltu %s, t5, %s", hi, below)
	g.emit(" bne %s, t5, %s", hi, target)
	g.li("t5", cLo)
	g.emit(" bgeu t5, %s, %s", lo, below)
	g.emit(" j %s", target)
	g.emit("%s:", below)
}

// GenerateRV32 produces the light-set evaluation routine for the RV32 core.
func GenerateRV32(regs *hwblock.RegMap, cv *sweval.CriticalValues) (string, error) {
	c := cv.Constants()
	cfg := regs.Config()
	g := &rvGen{regs: regs}
	n := int64(cfg.N)

	g.emit(" .org 0x%X", RV32CodeBase)
	g.emit("entry:")
	g.emit(" li s1, 0x%X", RV32TBBase)
	g.emit(" li s0, 0 # failure bitmap")

	// ---- Test 1 + stash |S| for test 3.
	if err := g.loadVal("S_FINAL", "a0"); err != nil {
		return "", err
	}
	g.li("a1", n)
	g.emit(" sub a0, a0, a1 # S")
	pos := g.label("pos")
	g.emit(" bge a0, zero, %s", pos)
	g.emit(" sub a0, zero, a0")
	g.emit("%s:", pos)
	g.emit(" mv s2, a0 # |S|")
	t1ok := g.label("t1ok")
	g.li("a1", c.MonobitSMax)
	g.emit(" bgeu a1, a0, %s", t1ok)
	g.emit(" ori s0, s0, %d", FailMonobit)
	g.emit("%s:", t1ok)

	// ---- Test 2: D = Σ(2ε−M)² with a 64-bit accumulator.
	if cfg.Has(2) {
		e, ok := regs.Lookup("BF_EPS_0")
		if !ok {
			return "", fmt.Errorf("firmware: no BF_EPS_0")
		}
		nBlocks := cfg.N / cfg.Params.BlockFrequencyM
		loop := g.label("bf")
		done2 := g.label("done2")
		fail2 := g.label("fail2")
		g.emit(" li t0, %d # block counter", nBlocks)
		g.emit(" li t1, %d # &BF_EPS_0 offset", 4*e.Addr)
		g.emit(" add t1, t1, s1")
		g.emit(" li s4, 0 # acc lo")
		g.emit(" li s5, 0 # acc hi")
		g.emit("%s:", loop)
		g.emit(" lw a0, 0(t1)")
		if e.Words == 2 {
			g.emit(" lw t6, 4(t1)")
			g.emit(" slli t6, t6, 16")
			g.emit(" or a0, a0, t6")
			g.emit(" addi t1, t1, 8")
		} else {
			g.emit(" addi t1, t1, 4")
		}
		g.emit(" slli a0, a0, 1 # 2ε")
		g.li("a1", int64(cfg.Params.BlockFrequencyM))
		g.emit(" sub a0, a0, a1 # dev")
		devPos := g.label("devpos")
		g.emit(" bge a0, zero, %s", devPos)
		g.emit(" sub a0, zero, a0")
		g.emit("%s:", devPos)
		g.emit(" mul a2, a0, a0 # dev² lo")
		g.emit(" mulhu a3, a0, a0 # dev² hi")
		g.emit(" add s4, s4, a2")
		g.emit(" sltu a4, s4, a2 # carry")
		g.emit(" add s5, s5, a3")
		g.emit(" add s5, s5, a4")
		g.emit(" addi t0, t0, -1")
		g.emit(" bne t0, zero, %s", loop)
		g.gt64("s4", "s5", c.BlockFreqMax, fail2)
		g.emit(" j %s", done2)
		g.emit("%s:", fail2)
		g.emit(" ori s0, s0, %d", FailBlockFreq)
		g.emit("%s:", done2)
	}

	// ---- Test 3: runs, interval table (rows are single 32-bit words).
	if cfg.Has(3) {
		fail3 := g.label("fail3")
		done3 := g.label("done3")
		rowLoop := g.label("row")
		rowSkip := g.label("skip")
		rowHit := g.label("hit")
		// Precondition: |S| ≥ pre → fail.
		g.li("a1", c.RunsPreSAbs)
		g.emit(" bgeu s2, a1, %s", fail3)
		if err := g.loadVal("N_RUNS", "a0"); err != nil {
			return "", err
		}
		g.emit(" li t1, rtab32")
		g.emit("%s:", rowLoop)
		g.emit(" lw a2, 0(t1) # sAbsMax")
		g.emit(" bgeu a2, s2, %s", rowHit)
		g.emit("%s:", rowSkip)
		g.emit(" addi t1, t1, 12")
		g.emit(" j %s", rowLoop)
		g.emit("%s:", rowHit)
		g.emit(" lw a2, 4(t1) # vLo")
		g.emit(" bltu a0, a2, %s", fail3)
		g.emit(" lw a2, 8(t1) # vHi")
		g.emit(" bltu a2, a0, %s", fail3)
		g.emit(" j %s", done3)
		g.emit("%s:", fail3)
		g.emit(" ori s0, s0, %d", FailRuns)
		g.emit("%s:", done3)
	}

	// ---- Test 4: Σν²·Q16 with a 64-bit accumulator.
	if cfg.Has(4) {
		e, ok := regs.Lookup("LR_NU_0")
		if !ok {
			return "", fmt.Errorf("firmware: no LR_NU_0")
		}
		if e.Words != 1 {
			return "", fmt.Errorf("firmware: expected 1-word class counts")
		}
		loop := g.label("lr")
		done4 := g.label("done4")
		fail4 := g.label("fail4")
		g.emit(" li t0, %d", len(c.LongestRunQ16))
		g.emit(" li t1, %d", 4*e.Addr)
		g.emit(" add t1, t1, s1")
		g.emit(" li t2, qtab32")
		g.emit(" li s4, 0")
		g.emit(" li s5, 0")
		g.emit("%s:", loop)
		g.emit(" lw a0, 0(t1)")
		g.emit(" addi t1, t1, 4")
		g.emit(" mul a0, a0, a0 # ν² (≤ 2^20, exact in 32 bits)")
		g.emit(" lw a1, 0(t2)")
		g.emit(" addi t2, t2, 4")
		g.emit(" mul a2, a0, a1 # ν²·Q lo")
		g.emit(" mulhu a3, a0, a1")
		g.emit(" add s4, s4, a2")
		g.emit(" sltu a4, s4, a2")
		g.emit(" add s5, s5, a3")
		g.emit(" add s5, s5, a4")
		g.emit(" addi t0, t0, -1")
		g.emit(" bne t0, zero, %s", loop)
		g.gt64("s4", "s5", c.LongestRunMax, fail4)
		g.emit(" j %s", done4)
		g.emit("%s:", fail4)
		g.emit(" ori s0, s0, %d", FailLongestRun)
		g.emit("%s:", done4)
	}

	// ---- Test 7: non-overlapping templates.
	if cfg.Has(7) {
		if err := g.genNonOverlap(cfg, c); err != nil {
			return "", err
		}
	}

	// ---- Test 8: overlapping templates (same Σν²·Q16 shape as test 4).
	if cfg.Has(8) {
		if err := g.genClassChi("OV_NU_0", c.OverlapQ16, c.OverlapMax, "ovtab32", FailOverlap); err != nil {
			return "", err
		}
	}

	// ---- Test 11: serial, with 64-bit ψ² accumulators.
	if cfg.Has(11) {
		if err := g.genSerial(cfg, c); err != nil {
			return "", err
		}
	}

	// ---- Test 12: approximate entropy via the PWL table.
	if cfg.Has(12) {
		logN := 0
		for 1<<uint(logN) < cfg.N {
			logN++
		}
		if err := g.genApEn(cfg, c, logN); err != nil {
			return "", err
		}
	}

	// ---- Test 13: cusum on the raw offset values.
	fail13 := g.label("fail13")
	done13 := g.label("done13")
	if err := g.loadVal("S_MAX", "a0"); err != nil {
		return "", err
	}
	g.li("a1", n)
	g.emit(" sub a0, a0, a1 # S_max")
	if err := g.loadVal("S_MIN", "a2"); err != nil {
		return "", err
	}
	g.emit(" sub a2, a1, a2 # n − S_min_raw = −S_min")
	zf := g.label("zf")
	g.emit(" bgeu a0, a2, %s", zf)
	g.emit(" mv a0, a2")
	g.emit("%s:", zf)
	g.li("a1", c.CusumZMin)
	g.emit(" bgeu a0, a1, %s", fail13)
	// Backward: max(S_fin_raw − S_min_raw, S_max_raw − S_fin_raw).
	if err := g.loadVal("S_FINAL", "a0"); err != nil {
		return "", err
	}
	if err := g.loadVal("S_MIN", "a2"); err != nil {
		return "", err
	}
	g.emit(" sub a3, a0, a2 # S_fin − S_min")
	if err := g.loadVal("S_MAX", "a2"); err != nil {
		return "", err
	}
	g.emit(" sub a0, a2, a0 # S_max − S_fin")
	zb := g.label("zb")
	g.emit(" bgeu a3, a0, %s", zb)
	g.emit(" mv a3, a0")
	g.emit("%s:", zb)
	g.li("a1", c.CusumZMin)
	g.emit(" bgeu a3, a1, %s", fail13)
	g.emit(" j %s", done13)
	g.emit("%s:", fail13)
	g.emit(" ori s0, s0, %d", FailCusum)
	g.emit("%s:", done13)

	// Publish and halt.
	g.emit(" li t0, 0x%X", RV32ResultAddr)
	g.emit(" sw s0, 0(t0)")
	g.emit(" ebreak")

	// Constant tables.
	if cfg.Has(3) {
		g.emit("rtab32:")
		for _, row := range c.RunsRows {
			vLo := row.VLo
			if vLo < 0 {
				vLo = 0
			}
			g.emit(" .word %d, %d, %d", row.SAbsMax, vLo, row.VHi)
		}
	}
	if cfg.Has(4) {
		g.emit("qtab32:")
		for _, q := range c.LongestRunQ16 {
			g.emit(" .word %d", q)
		}
	}
	if cfg.Has(8) {
		g.emit("ovtab32:")
		for _, q := range c.OverlapQ16 {
			g.emit(" .word %d", q)
		}
	}
	if cfg.Has(12) {
		g.emitPWLTable(c.PWL)
	}
	return g.b.String(), nil
}

// rv32TBPort adapts the register file to the RV32 bus: 16-bit word w at
// byte offset 4·w, zero-extended.
type rv32TBPort struct {
	rf *hwblock.RegFile
}

func (p *rv32TBPort) ReadWord(addr uint32) uint32 {
	return uint32(p.rf.ReadWord(int(addr / 4)))
}

func (p *rv32TBPort) WriteWord(addr uint32, v uint32) {}

// rv32RAMWindow gives the result address backing store.
type rv32RAMWindow struct{ word uint32 }

func (w *rv32RAMWindow) ReadWord(addr uint32) uint32 { return w.word }
func (w *rv32RAMWindow) WriteWord(addr, v uint32)    { w.word = v }

// RunRV32 generates, assembles and executes the RV32 evaluation routine
// against the block's register file.
func RunRV32(b *hwblock.Block, cv *sweval.CriticalValues) (Result, string, error) {
	src, err := GenerateRV32(b.RegMap(), cv)
	if err != nil {
		return Result{}, "", err
	}
	prog, err := rv32.Assemble(src)
	if err != nil {
		return Result{}, src, fmt.Errorf("firmware: rv32 assembly failed: %w", err)
	}
	cpu := rv32.New()
	port := &rv32TBPort{rf: b.RegFile()}
	window := uint32(4 * b.RegFile().Words())
	if err := cpu.MapPeripheral(RV32TBBase, (window+3)&^3, port); err != nil {
		return Result{}, src, err
	}
	result := &rv32RAMWindow{}
	if err := cpu.MapPeripheral(RV32ResultAddr, 4, result); err != nil {
		return Result{}, src, err
	}
	cpu.LoadImage(prog.Origin, prog.Words)
	cpu.SetPC(prog.Entry("entry"))
	steps := 0
	for !cpu.Halted() {
		if err := cpu.Step(); err != nil {
			return Result{}, src, err
		}
		steps++
		if steps > 1_000_000 {
			return Result{}, src, fmt.Errorf("firmware: rv32 runaway execution")
		}
	}
	return Result{
		FailBitmap:   uint16(result.word),
		Cycles:       cpu.Cycles(),
		Instructions: int64(steps),
	}, src, nil
}
