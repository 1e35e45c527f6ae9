// Package sweval implements the software half of the paper's HW/SW split:
// the routines a 16-bit microcontroller runs on the raw counter values read
// from the hardware testing block. Every routine works in integer or
// fixed-point arithmetic against precomputed critical values — no erfc, no
// gamma functions, no floating point on the embedded path — and every
// operation is metered by the instruction-cost model whose categories
// (ADD, SUB, MUL, SQR, SHIFT, COMP, LUT, READ) are exactly the rows of the
// paper's Table III.
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
// operations"). wordBits is 16 for the paper's platform; the Table III
// discussion's expectation that "on 32-bit or 64-bit platforms,
// considerably lower latency could be achieved" is reproduced by metering
// the same routines at wider word sizes.
type meter struct {
	cost     Cost
	wordBits int
}

// words returns the number of limbs needed for a value of the given bit
// width at the meter's word size.
func (m *meter) words(bits int) int {
	wb := m.wordBits
	if wb == 0 {
		wb = WordSize16
	}
	if bits <= 0 {
		return 1
	}
	return (bits + wb - 1) / wb
}

// Supported cost-model word sizes.
const (
	WordSize16 = 16
	WordSize32 = 32
	WordSize64 = 64
)

// widthOf returns the bit width of v (minimum 1).
func widthOf(v uint64) int {
	return max(bits.Len64(v), 1)
}

// add computes a+b, charging one ADD per limb of the wider operand.
func (m *meter) add(a, b int64) int64 {
	w := m.words(widthOf(uint64(abs64(a) | abs64(b))))
	m.cost[OpAdd] += w
	return a + b
}

// sub computes a−b, charging one SUB per limb.
func (m *meter) sub(a, b int64) int64 {
	w := m.words(widthOf(uint64(abs64(a) | abs64(b))))
	m.cost[OpSub] += w
	return a - b
}

// mul computes a·b, charging limb-product MULs and carry ADDs.
func (m *meter) mul(a, b int64) int64 {
	wa, wb := m.words(widthOf(uint64(abs64(a)))), m.words(widthOf(uint64(abs64(b))))
	m.cost[OpMul] += wa * wb
	if wa*wb > 1 {
		m.cost[OpAdd] += wa*wb - 1 // partial-product accumulation
	}
	return a * b
}

// sqr computes a², charging SQRs on the diagonal limb products, MULs on the
// off-diagonal ones, and carry ADDs.
func (m *meter) sqr(a int64) int64 {
	w := m.words(widthOf(uint64(abs64(a))))
	m.cost[OpSqr] += w
	m.cost[OpMul] += w * (w - 1) / 2
	if w > 1 {
		m.cost[OpAdd] += w - 1
	}
	return a * a
}

// shl shifts left, charging one SHIFT.
func (m *meter) shl(a int64, k uint) int64 {
	m.cost[OpShift]++
	return a << k
}

// shr shifts right, charging one SHIFT.
func (m *meter) shr(a int64, k uint) int64 {
	m.cost[OpShift]++
	return a >> k
}

// cmpGreater reports a > b, charging one COMP per limb.
func (m *meter) cmpGreater(a, b int64) bool {
	w := m.words(widthOf(uint64(abs64(a) | abs64(b))))
	m.cost[OpComp] += w
	return a > b
}

// lut charges one table access (the PWL segment fetch).
func (m *meter) lut() {
	m.cost[OpLUT]++
}

// read charges the bus reads of one register-file value.
func (m *meter) read(busReads int) {
	m.cost[OpRead] += busReads
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
