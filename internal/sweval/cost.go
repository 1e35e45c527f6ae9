// Package sweval implements the software half of the paper's HW/SW split:
// the routines a 16-bit microcontroller runs on the raw counter values read
// from the hardware testing block. Every routine works in integer or
// fixed-point arithmetic against precomputed critical values — no erfc, no
// gamma functions, no floating point on the embedded path.
//
// One routine source serves two entry points. A metered pass
// (Evaluator.Evaluate, EvaluateInto) charges every operation to the
// instruction-cost model whose categories (ADD, SUB, MUL, SQR, SHIFT,
// COMP, LUT, READ) are exactly the rows of the paper's Table III; the
// tables, the goldens and the firmware comparison run it. An unmetered
// pass (EvaluateVerdicts) computes the same verdicts without charging,
// as the embedded core itself does: it is the verdict path of
// core.Monitor and the fleet, where nothing reads a cost.
package sweval

import (
	"fmt"
	"math/bits"
)

// Op is one instruction category of the paper's 16-bit cost model.
type Op int

// The Table III instruction categories.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpSqr
	OpShift
	OpComp
	OpLUT
	OpRead
	numOps
)

// String returns the Table III row label.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "ADD"
	case OpSub:
		return "SUB"
	case OpMul:
		return "MUL"
	case OpSqr:
		return "SQR"
	case OpShift:
		return "SHIFT"
	case OpComp:
		return "COMP"
	case OpLUT:
		return "LUT"
	case OpRead:
		return "READ"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Cost is an instruction-count vector over the model's categories.
type Cost [numOps]int

// Add accumulates another cost vector.
func (c *Cost) Add(o Cost) {
	for i := range c {
		c[i] += o[i]
	}
}

// Total returns the total instruction count.
func (c Cost) Total() int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}

// Get returns the count for one category.
func (c Cost) Get(o Op) int { return c[o] }

// String lists the count of every operation category, in Op order.
func (c Cost) String() string {
	return fmt.Sprintf("ADD=%d SUB=%d MUL=%d SQR=%d SHIFT=%d COMP=%d LUT=%d READ=%d",
		c[OpAdd], c[OpSub], c[OpMul], c[OpSqr], c[OpShift], c[OpComp], c[OpLUT], c[OpRead])
}

// meter is the metered ALU: each helper performs the arithmetic on native
// integers and charges the cost a fixed-word-size core would pay, with wide
// operands decomposed into word-size limbs ("instructions operating on
// data larger than 16-bit have to be decomposed into several 16-bit
// operations"). The paper's platform has 16-bit words; the Table III
// discussion's expectation that "on 32-bit or 64-bit platforms,
// considerably lower latency could be achieved" is reproduced by metering
// the same routines at wider word sizes. A meter that is off performs
// the arithmetic alone: each helper tests off before it computes a limb
// count, so an unmetered pass charges nothing and its cost stays zero.
type meter struct {
	cost Cost
	// wide is log2(word size / 16): 0, 1 or 2 for a 16-, 32- or 64-bit
	// core, so the zero meter meters the paper's 16-bit core.
	wide uint
	off  bool // charge nothing
}

// Supported cost-model word sizes.
const (
	WordSize16 = 16
	WordSize32 = 32
	WordSize64 = 64
)

// wideShift returns the meter's wide field for a supported word size.
func wideShift(wordBits int) uint {
	return uint(bits.TrailingZeros(uint(wordBits))) - 4
}

// words returns the number of limbs a value of magnitude v occupies at
// the meter's word size, at least one: ⌈max(bits(v), 1) / wordBits⌉,
// computed as 1 + bits(v>>1) >> log2(wordBits), a shift in place of a
// divide. The shift count is masked to 6 bits, its range anyway, so the
// compiler emits the shift without the guard for counts of 64 and more.
func (m *meter) words(v uint64) int {
	return bits.Len64(v>>1)>>((4+m.wide)&63) + 1
}

// add computes a+b, charging one ADD per limb of the wider operand.
func (m *meter) add(a, b int64) int64 {
	if !m.off {
		m.cost[OpAdd] += m.words(abs64(a) | abs64(b))
	}
	return a + b
}

// sub computes a−b, charging one SUB per limb.
func (m *meter) sub(a, b int64) int64 {
	if !m.off {
		m.cost[OpSub] += m.words(abs64(a) | abs64(b))
	}
	return a - b
}

// mul computes a·b, charging limb-product MULs and carry ADDs.
func (m *meter) mul(a, b int64) int64 {
	if !m.off {
		p := m.words(abs64(a)) * m.words(abs64(b))
		m.cost[OpMul] += p
		m.cost[OpAdd] += p - 1 // partial-product accumulation
	}
	return a * b
}

// sqr computes a², charging SQRs on the diagonal limb products, MULs on the
// off-diagonal ones, and carry ADDs.
func (m *meter) sqr(a int64) int64 {
	if !m.off {
		w := m.words(abs64(a))
		m.cost[OpSqr] += w
		m.cost[OpMul] += w * (w - 1) / 2
		m.cost[OpAdd] += w - 1
	}
	return a * a
}

// shl shifts left, charging one SHIFT.
func (m *meter) shl(a int64, k uint) int64 {
	if !m.off {
		m.cost[OpShift]++
	}
	return a << k
}

// shr shifts right, charging one SHIFT.
func (m *meter) shr(a int64, k uint) int64 {
	if !m.off {
		m.cost[OpShift]++
	}
	return a >> k
}

// cmpGreater reports a > b, charging one COMP per limb.
func (m *meter) cmpGreater(a, b int64) bool {
	if !m.off {
		m.cost[OpComp] += m.words(abs64(a) | abs64(b))
	}
	return a > b
}

// lut charges one table access (the PWL segment fetch).
func (m *meter) lut() {
	if !m.off {
		m.cost[OpLUT]++
	}
}

// read charges the bus reads of one register-file value.
func (m *meter) read(busReads int) {
	if !m.off {
		m.cost[OpRead] += busReads
	}
}

// abs64 returns |a| as an unsigned magnitude (math.MinInt64 gives 1<<63),
// without a branch.
func abs64(a int64) uint64 {
	return uint64(max(a, -a))
}
