package firmware

import (
	"fmt"

	"repro/internal/hwblock"
	"repro/internal/sweval"
)

// This file extends the RV32 evaluation routine to the full nine-test set
// of the high designs: the template tests (7, 8), the serial test (11)
// with 64-bit accumulators, and the approximate-entropy test (12) with the
// 32-segment PWL x·log(x) evaluated in Q16 fixed point — the complete
// software half of the paper running as machine code on the 32-bit open
// core.

// Extra failure bits for the full set (the light bits are defined in
// firmware.go).
const (
	FailNonOverlap = 1 << 5
	FailOverlap    = 1 << 6
	FailSerial     = 1 << 7
	FailApEn       = 1 << 8
)

// rv32 scratch RAM for 64-bit intermediates (A_m, A_{m−1}, A_{m−2}).
const rv32Scratch = 0x3000

// add64 emits acc(s4:s5) += (a2 lo, a3 hi).
func (g *rvGen) add64() {
	g.emit(" add s4, s4, a2")
	g.emit(" sltu a4, s4, a2")
	g.emit(" add s5, s5, a3")
	g.emit(" add s5, s5, a4")
}

// shl64 emits a k-bit left shift of the (lo, hi) register pair (0 < k < 32).
func (g *rvGen) shl64(lo, hi string, k int) {
	g.emit(" slli %s, %s, %d", hi, hi, k)
	g.emit(" srli t5, %s, %d", lo, 32-k)
	g.emit(" or %s, %s, t5", hi, hi)
	g.emit(" slli %s, %s, %d", lo, lo, k)
}

// sub64 emits (aLo,aHi) −= (bLo,bHi).
func (g *rvGen) sub64(aLo, aHi, bLo, bHi string) {
	g.emit(" sltu t5, %s, %s # borrow", aLo, bLo)
	g.emit(" sub %s, %s, %s", aLo, aLo, bLo)
	g.emit(" sub %s, %s, %s", aHi, aHi, bHi)
	g.emit(" sub %s, %s, t5", aHi, aHi)
}

// sumSquares64 emits a loop accumulating Σ value² over `count` consecutive
// register-file values of `words` bus words each, starting at word address
// `addr`, into s4:s5.
func (g *rvGen) sumSquares64(addr, words, count int) {
	loop := g.label("ssq")
	g.emit(" li t0, %d", count)
	g.emit(" li t1, %d", 4*addr)
	g.emit(" add t1, t1, s1")
	g.emit(" li s4, 0")
	g.emit(" li s5, 0")
	g.emit("%s:", loop)
	g.emit(" lw a0, 0(t1)")
	if words == 2 {
		g.emit(" lw t6, 4(t1)")
		g.emit(" slli t6, t6, 16")
		g.emit(" or a0, a0, t6")
		g.emit(" addi t1, t1, 8")
	} else {
		g.emit(" addi t1, t1, 4")
	}
	g.emit(" mul a2, a0, a0")
	g.emit(" mulhu a3, a0, a0")
	g.add64()
	g.emit(" addi t0, t0, -1")
	g.emit(" bne t0, zero, %s", loop)
}

// genNonOverlap emits test 7: D = Σ(2^m·W − (M−m+1))² with a 64-bit
// accumulator.
func (g *rvGen) genNonOverlap(cfg hwblock.Config, c sweval.EmbeddedConstants) error {
	e, ok := g.regs.Lookup("NO_W_0")
	if !ok {
		return fmt.Errorf("firmware: no NO_W_0")
	}
	m := cfg.Params.TemplateM
	blockLen := cfg.N / cfg.Params.NonOverlappingN
	muScaled := int64(blockLen - m + 1)
	loop := g.label("no")
	fail := g.label("fail7")
	done := g.label("done7")
	g.emit(" li t0, %d", cfg.Params.NonOverlappingN)
	g.emit(" li t1, %d", 4*e.Addr)
	g.emit(" add t1, t1, s1")
	g.emit(" li s4, 0")
	g.emit(" li s5, 0")
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
	g.emit(" slli a0, a0, %d # 2^m·W", m)
	g.li("a1", muScaled)
	g.emit(" sub a0, a0, a1 # dev")
	pos := g.label("no_pos")
	g.emit(" bge a0, zero, %s", pos)
	g.emit(" sub a0, zero, a0")
	g.emit("%s:", pos)
	g.emit(" mul a2, a0, a0")
	g.emit(" mulhu a3, a0, a0")
	g.add64()
	g.emit(" addi t0, t0, -1")
	g.emit(" bne t0, zero, %s", loop)
	g.gt64("s4", "s5", c.NonOvMax, fail)
	g.emit(" j %s", done)
	g.emit("%s:", fail)
	g.emit(" ori s0, s0, %d", FailNonOverlap)
	g.emit("%s:", done)
	return nil
}

// genClassChi emits the Σν²·Q16 pattern (tests 4 and 8 share it); used
// here for test 8 with its own table label and fail bit.
func (g *rvGen) genClassChi(firstEntry string, qs []int64, max int64, tabLabel string, failBit int) error {
	e, ok := g.regs.Lookup(firstEntry)
	if !ok {
		return fmt.Errorf("firmware: no %s", firstEntry)
	}
	if e.Words != 1 {
		return fmt.Errorf("firmware: expected 1-word class counts at %s", firstEntry)
	}
	loop := g.label("cc")
	fail := g.label("ccfail")
	done := g.label("ccdone")
	g.emit(" li t0, %d", len(qs))
	g.emit(" li t1, %d", 4*e.Addr)
	g.emit(" add t1, t1, s1")
	g.emit(" li t2, %s", tabLabel)
	g.emit(" li s4, 0")
	g.emit(" li s5, 0")
	g.emit("%s:", loop)
	g.emit(" lw a0, 0(t1)")
	g.emit(" addi t1, t1, 4")
	g.emit(" mul a0, a0, a0")
	g.emit(" lw a1, 0(t2)")
	g.emit(" addi t2, t2, 4")
	g.emit(" mul a2, a0, a1")
	g.emit(" mulhu a3, a0, a1")
	g.add64()
	g.emit(" addi t0, t0, -1")
	g.emit(" bne t0, zero, %s", loop)
	g.gt64("s4", "s5", max, fail)
	g.emit(" j %s", done)
	g.emit("%s:", fail)
	g.emit(" ori s0, s0, %d", failBit)
	g.emit("%s:", done)
	return nil
}

// genSerial emits test 11: the 64-bit forms of n·∇ψ² and n·∇²ψ².
func (g *rvGen) genSerial(cfg hwblock.Config, c sweval.EmbeddedConstants) error {
	m := cfg.Params.SerialM
	// Bank start addresses: the counters were registered contiguously
	// per width, m first.
	type bank struct {
		addr, words, count int
		scratch            int // scratch byte offset for the 64-bit A
	}
	var banks []bank
	for i, w := range []int{m, m - 1, m - 2} {
		name := fmt.Sprintf("SERIAL_NU%d_%0*b", w, w, 0)
		e, ok := g.regs.Lookup(name)
		if !ok {
			return fmt.Errorf("firmware: no %s", name)
		}
		banks = append(banks, bank{addr: e.Addr, words: e.Words, count: 1 << uint(w), scratch: 8 * i})
	}
	// Compute and stash A_m, A_{m−1}, A_{m−2}.
	g.emit(" li s6, 0x%X # scratch", rv32Scratch)
	for _, b := range banks {
		g.sumSquares64(b.addr, b.words, b.count)
		g.emit(" sw s4, %d(s6)", b.scratch)
		g.emit(" sw s5, %d(s6)", b.scratch+4)
	}
	fail := g.label("fail11")
	done := g.label("done11")
	// X1 = (A_m << m) − (A_{m−1} << (m−1)).
	g.emit(" lw s4, 0(s6)")
	g.emit(" lw s5, 4(s6)")
	g.shl64("s4", "s5", m)
	g.emit(" lw a0, 8(s6)")
	g.emit(" lw a1, 12(s6)")
	g.shl64("a0", "a1", m-1)
	g.sub64("s4", "s5", "a0", "a1")
	g.gt64("s4", "s5", c.SerialMax1, fail)
	// X2 = (A_m << m) + (A_{m−2} << (m−2)) − (A_{m−1} << m).
	g.emit(" lw s4, 0(s6)")
	g.emit(" lw s5, 4(s6)")
	g.shl64("s4", "s5", m)
	g.emit(" lw a2, 16(s6)")
	g.emit(" lw a3, 20(s6)")
	g.shl64("a2", "a3", m-2)
	g.add64()
	g.emit(" lw a0, 8(s6)")
	g.emit(" lw a1, 12(s6)")
	g.shl64("a0", "a1", m)
	g.sub64("s4", "s5", "a0", "a1")
	g.gt64("s4", "s5", c.SerialMax2, fail)
	g.emit(" j %s", done)
	g.emit("%s:", fail)
	g.emit(" ori s0, s0, %d", FailSerial)
	g.emit("%s:", done)
	return nil
}

// genApEn emits test 12: φ_w = Σ PWL(ν/n) in Q16 over the serial banks of
// widths m and m−1, then the apen < threshold comparison. The PWL table
// rows are (|slope|, signFlag, intercept), all Q16.
//
// Rounding note: the cost-model evaluator floor-shifts the signed product
// (arithmetic >>16) while this routine truncates the magnitude before
// negating (ceil for negative products) — each term may differ by one Q16
// ulp. With up to 24 terms the φ discrepancy stays below 24/2^16, two
// orders of magnitude inside the ApEn threshold's compensation margin, so
// verdicts never diverge (covered by the cross-check tests).
func (g *rvGen) genApEn(cfg hwblock.Config, c sweval.EmbeddedConstants, logN int) error {
	m := cfg.Params.SerialM
	fail := g.label("fail12")
	done := g.label("done12")
	// φ accumulates in s6 (width m−1 bank) then s7 (width m bank).
	for i, w := range []int{m - 1, m} {
		name := fmt.Sprintf("SERIAL_NU%d_%0*b", w, w, 0)
		e, ok := g.regs.Lookup(name)
		if !ok {
			return fmt.Errorf("firmware: no %s", name)
		}
		phiReg := "s6"
		if i == 1 {
			phiReg = "s7"
		}
		loop := g.label("phi")
		skip := g.label("phiskip")
		noclamp := g.label("noclamp")
		g.emit(" li t0, %d", 1<<uint(w))
		g.emit(" li t1, %d", 4*e.Addr)
		g.emit(" add t1, t1, s1")
		g.emit(" li %s, 0", phiReg)
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
		g.emit(" beq a0, zero, %s", skip)
		// xQ16 = ν scaled by 2^(16 − logN).
		switch {
		case logN > 16:
			g.emit(" srli a0, a0, %d", logN-16)
		case logN < 16:
			g.emit(" slli a0, a0, %d", 16-logN)
		}
		// Segment index, clamped to 31.
		g.emit(" srli a1, a0, 11")
		g.emit(" li t5, 31")
		g.emit(" bgeu t5, a1, %s", noclamp)
		g.emit(" mv a1, t5")
		g.emit("%s:", noclamp)
		// Row address: pwltab + 12·seg.
		g.emit(" slli a2, a1, 3")
		g.emit(" slli a1, a1, 2")
		g.emit(" add a1, a1, a2")
		g.emit(" li a2, pwltab")
		g.emit(" add a1, a1, a2")
		g.emit(" lw a2, 0(a1) # |slope| Q16")
		g.emit(" lw a3, 4(a1) # sign flag")
		g.emit(" lw a4, 8(a1) # intercept Q16 (signed)")
		// p = (|slope|·x) >> 16, using mul/mulhu.
		g.emit(" mul a5, a2, a0")
		g.emit(" mulhu a2, a2, a0")
		g.emit(" srli a5, a5, 16")
		g.emit(" slli a2, a2, 16")
		g.emit(" or a5, a5, a2")
		neg := g.label("nneg")
		g.emit(" beq a3, zero, %s", neg)
		g.emit(" sub a5, zero, a5")
		g.emit("%s:", neg)
		g.emit(" add a5, a5, a4 # term")
		g.emit(" add %s, %s, a5", phiReg, phiReg)
		g.emit("%s:", skip)
		g.emit(" addi t0, t0, -1")
		g.emit(" bne t0, zero, %s", loop)
	}
	// apen = φ_{m−1} − φ_m; fail iff apen < apenMin (signed).
	g.emit(" sub a0, s6, s7")
	g.li("a1", c.ApEnMinQ16)
	g.emit(" blt a0, a1, %s", fail)
	g.emit(" j %s", done)
	g.emit("%s:", fail)
	g.emit(" ori s0, s0, %d", FailApEn)
	g.emit("%s:", done)
	return nil
}

// emitPWLTable writes the 32-row (|slope|, sign, intercept) table.
func (g *rvGen) emitPWLTable(rows []sweval.PWLRow) {
	g.emit("pwltab:")
	for _, r := range rows {
		sign := 0
		abs := r.SlopeQ16
		if abs < 0 {
			sign = 1
			abs = -abs
		}
		g.emit(" .word %d, %d, %d", abs, sign, r.InterceptQ16)
	}
}
