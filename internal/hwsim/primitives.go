package hwsim

import "fmt"

// WidthFor returns the number of bits needed to represent values 0..max:
// the width every primitive built for a worst-case count of max declares.
func WidthFor(max uint64) int {
	w := 1
	for max>>uint(w) != 0 {
		w++
	}
	return w
}

// Counter is an unsigned binary up-counter of a fixed width. Incrementing
// past the maximum wraps, as real hardware would; the testing-block designs
// size every counter so that wrap cannot occur within one test sequence.
type Counter struct {
	name  string
	width int
	value uint64
}

// NewCounter creates a counter wide enough to count to max and registers it
// in nl.
func NewCounter(nl *Netlist, name string, max uint64) *Counter {
	c := &Counter{name: name, width: WidthFor(max)}
	nl.add(c)
	return c
}

// PrimName implements Primitive.
func (c *Counter) PrimName() string { return fmt.Sprintf("counter %s[%d]", c.name, c.width) }

// Info implements Described.
func (c *Counter) Info() PrimInfo {
	return PrimInfo{Kind: "counter", Name: c.name, Width: c.width, Lanes: 1}
}

// Resources implements Primitive: one FF per bit plus roughly one LUT per
// bit of increment logic (Spartan-6 packs the carry chain efficiently; the
// constant is calibrated in area.go's slice model, not here).
func (c *Counter) Resources() Resources { return Resources{FFs: c.width, LUTs: c.width} }

// Reset implements Primitive.
func (c *Counter) Reset() { c.value = 0 }

// CounterWidth reports the carry-chain width for the timing model.
func (c *Counter) CounterWidth() int { return c.width }

// Inc adds one (mod 2^width).
func (c *Counter) Inc() {
	c.value = (c.value + 1) & (1<<uint(c.width) - 1)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.value }

// Ref returns the address of the live count, for a reader that samples it
// without a call: a register-file multiplexer leg. Only the counter's own
// methods write through it.
func (c *Counter) Ref() *uint64 { return &c.value }

// Load sets the count directly (mod 2^width) — the parallel load port the
// word-level fast path uses to publish its state into the structural
// register image. It adds no per-clock logic.
func (c *Counter) Load(v uint64) { c.value = v & (1<<uint(c.width) - 1) }

// Width returns the counter width in bits.
func (c *Counter) Width() int { return c.width }

// Bit returns bit i of the counter value. The testing block derives block
// boundaries from specific bits of the global bit counter (the paper's
// "block detection" trick), so this is a structural output, not a debug
// accessor.
func (c *Counter) Bit(i int) byte { return byte(c.value>>uint(i)) & 1 }

// UpDownCounter is a signed counter (two's complement of the given width)
// used to track the cumulative-sums random walk.
type UpDownCounter struct {
	name  string
	width int
	value int64
}

// NewUpDownCounter creates an up/down counter able to hold ±maxAbs.
func NewUpDownCounter(nl *Netlist, name string, maxAbs uint64) *UpDownCounter {
	c := &UpDownCounter{name: name, width: WidthFor(maxAbs) + 1} // +1 sign bit
	nl.add(c)
	return c
}

// PrimName implements Primitive.
func (c *UpDownCounter) PrimName() string {
	return fmt.Sprintf("updown %s[%d]", c.name, c.width)
}

// Info implements Described.
func (c *UpDownCounter) Info() PrimInfo {
	return PrimInfo{Kind: "updown", Name: c.name, Width: c.width, Lanes: 1}
}

// Resources implements Primitive: an up/down counter needs an adder that
// can add ±1, slightly more logic than a pure incrementer.
func (c *UpDownCounter) Resources() Resources {
	return Resources{FFs: c.width, LUTs: c.width + 2}
}

// Reset implements Primitive.
func (c *UpDownCounter) Reset() { c.value = 0 }

// CounterWidth reports the carry-chain width for the timing model.
func (c *UpDownCounter) CounterWidth() int { return c.width }

// Inc adds one.
func (c *UpDownCounter) Inc() { c.value++ }

// Dec subtracts one.
func (c *UpDownCounter) Dec() { c.value-- }

// Value returns the signed count.
func (c *UpDownCounter) Value() int64 { return c.value }

// Load sets the count directly — the parallel load port for the word-level
// fast path.
func (c *UpDownCounter) Load(v int64) { c.value = v }

// Register is a loadable register of a fixed width.
type Register struct {
	name  string
	width int
	value *uint64
}

// NewRegister creates a register wide enough to hold max.
func NewRegister(nl *Netlist, name string, max uint64) *Register {
	return NewRegisterAt(nl, name, max, new(uint64))
}

// NewRegisterAt is NewRegister for a register that stores its value at v,
// storage it shares with another model of the same hardware.
func NewRegisterAt(nl *Netlist, name string, max uint64, v *uint64) *Register {
	r := &Register{name: name, width: WidthFor(max), value: v}
	nl.add(r)
	return r
}

// PrimName implements Primitive.
func (r *Register) PrimName() string { return fmt.Sprintf("reg %s[%d]", r.name, r.width) }

// Info implements Described.
func (r *Register) Info() PrimInfo {
	return PrimInfo{Kind: "register", Name: r.name, Width: r.width, Lanes: 1}
}

// Resources implements Primitive: mostly storage; the load-enable decode
// and input routing cost a fraction of a LUT per bit.
func (r *Register) Resources() Resources {
	return Resources{FFs: r.width, LUTs: r.width / 4}
}

// Reset implements Primitive.
func (r *Register) Reset() { *r.value = 0 }

// Load stores v.
func (r *Register) Load(v uint64) { *r.value = v & (1<<uint(r.width) - 1) }

// Width returns the register width in bits.
func (r *Register) Width() int { return r.width }

// Value returns the stored value.
func (r *Register) Value() uint64 { return *r.value }

// Ref returns the address of the live value, for a reader that samples it
// without a call: a register-file multiplexer leg. Only the register's own
// methods and the storage's other model (NewRegisterAt) write through it.
func (r *Register) Ref() *uint64 { return r.value }

// MinMaxTracker records the running minimum and maximum of a signed value —
// the S_max/S_min registers of the cusum hardware: two registers plus two
// signed comparators.
type MinMaxTracker struct {
	name     string
	width    int
	min, max int64
}

// NewMinMaxTracker creates a tracker for values within ±maxAbs.
func NewMinMaxTracker(nl *Netlist, name string, maxAbs uint64) *MinMaxTracker {
	t := &MinMaxTracker{name: name, width: WidthFor(maxAbs) + 1}
	nl.add(t)
	return t
}

// PrimName implements Primitive.
func (t *MinMaxTracker) PrimName() string {
	return fmt.Sprintf("minmax %s[%d]", t.name, t.width)
}

// Info implements Described.
func (t *MinMaxTracker) Info() PrimInfo {
	return PrimInfo{Kind: "minmax", Name: t.name, Width: t.width, Lanes: 1}
}

// Resources implements Primitive: two registers plus two comparators
// (≈ width/3 LUTs each on 6-input fabric, plus update muxing).
func (t *MinMaxTracker) Resources() Resources {
	return Resources{FFs: 2 * t.width, LUTs: 2 * (t.width/3 + t.width/2)}
}

// Reset implements Primitive.
func (t *MinMaxTracker) Reset() { t.min, t.max = 0, 0 }

// Update folds v into the running extrema.
func (t *MinMaxTracker) Update(v int64) {
	if v < t.min {
		t.min = v
	}
	if v > t.max {
		t.max = v
	}
}

// Load sets both extrema directly — the parallel load port for the
// word-level fast path.
func (t *MinMaxTracker) Load(min, max int64) { t.min, t.max = min, max }

// Min returns the running minimum (≤ 0 by initialization).
func (t *MinMaxTracker) Min() int64 { return t.min }

// Max returns the running maximum (≥ 0 by initialization).
func (t *MinMaxTracker) Max() int64 { return t.max }

// MaxTracker records the running maximum of an unsigned value — used for
// the longest-run-within-block detector.
type MaxTracker struct {
	name  string
	width int
	max   uint64
}

// NewMaxTracker creates a tracker for values 0..maxVal.
func NewMaxTracker(nl *Netlist, name string, maxVal uint64) *MaxTracker {
	t := &MaxTracker{name: name, width: WidthFor(maxVal)}
	nl.add(t)
	return t
}

// PrimName implements Primitive.
func (t *MaxTracker) PrimName() string { return fmt.Sprintf("max %s[%d]", t.name, t.width) }

// Info implements Described.
func (t *MaxTracker) Info() PrimInfo {
	return PrimInfo{Kind: "max", Name: t.name, Width: t.width, Lanes: 1}
}

// Resources implements Primitive: register plus comparator.
func (t *MaxTracker) Resources() Resources {
	return Resources{FFs: t.width, LUTs: t.width/3 + t.width/2}
}

// Reset implements Primitive.
func (t *MaxTracker) Reset() { t.max = 0 }

// Update folds v into the running maximum.
func (t *MaxTracker) Update(v uint64) {
	if v > t.max {
		t.max = v
	}
}

// Clear zeroes the maximum (block boundary).
func (t *MaxTracker) Clear() { t.max = 0 }

// Max returns the running maximum.
func (t *MaxTracker) Max() uint64 { return t.max }

// ShiftReg is a serial-in shift register holding the most recent bits; the
// template-matching and serial-test engines read its parallel output. It is
// the resource the paper shares between the two template tests ("Shared
// shift register").
type ShiftReg struct {
	name  string
	len   int
	value uint64 // bit 0 = newest
	fill  int
}

// NewShiftReg creates a shift register of the given length (≤ 64).
func NewShiftReg(nl *Netlist, name string, length int) *ShiftReg {
	if length < 1 || length > 64 {
		panic("hwsim: shift register length out of range")
	}
	s := &ShiftReg{name: name, len: length}
	nl.add(s)
	return s
}

// PrimName implements Primitive.
func (s *ShiftReg) PrimName() string { return fmt.Sprintf("shiftreg %s[%d]", s.name, s.len) }

// Info implements Described.
func (s *ShiftReg) Info() PrimInfo {
	return PrimInfo{Kind: "shiftreg", Name: s.name, Width: s.len, Lanes: 1}
}

// Resources implements Primitive: one FF per stage; shifting is wiring.
func (s *ShiftReg) Resources() Resources { return Resources{FFs: s.len} }

// Reset implements Primitive.
func (s *ShiftReg) Reset() { s.value, s.fill = 0, 0 }

// Shift clocks a bit in (the new bit becomes the newest position).
func (s *ShiftReg) Shift(b byte) {
	s.value = (s.value<<1 | uint64(b&1)) & (1<<uint(s.len) - 1)
	if s.fill < s.len {
		s.fill++
	}
}

// Full reports whether length bits have been shifted in since reset.
func (s *ShiftReg) Full() bool { return s.fill == s.len }

// Window returns the newest w bits as an integer, oldest bit in the most
// significant position — the pattern value read MSB-first.
func (s *ShiftReg) Window(w int) uint64 {
	if w > s.len {
		panic("hwsim: window wider than shift register")
	}
	return s.value & (1<<uint(w) - 1)
}

// Fill reports how many bits have been shifted in since reset (saturating
// at the register length).
func (s *ShiftReg) Fill() int { return s.fill }

// EqComparator is a purely combinational equality comparator against a
// fixed pattern; it occupies LUTs but holds no state.
type EqComparator struct {
	name  string
	width int
}

// NewEqComparator registers a width-bit equality comparator.
func NewEqComparator(nl *Netlist, name string, width int) *EqComparator {
	c := &EqComparator{name: name, width: width}
	nl.add(c)
	return c
}

// PrimName implements Primitive.
func (c *EqComparator) PrimName() string { return fmt.Sprintf("cmp %s[%d]", c.name, c.width) }

// Info implements Described.
func (c *EqComparator) Info() PrimInfo {
	return PrimInfo{Kind: "cmp", Name: c.name, Width: c.width, Lanes: 1}
}

// Resources implements Primitive: a w-bit equality against a constant fits
// in ~w/6 LUT6s plus a small AND tree.
func (c *EqComparator) Resources() Resources { return Resources{LUTs: c.width/6 + 1} }

// Reset implements Primitive.
func (c *EqComparator) Reset() {}

// Matches reports whether v equals pattern (pure combinational function).
func (c *EqComparator) Matches(v, pattern uint64) bool {
	mask := uint64(1)<<uint(c.width) - 1
	return v&mask == pattern&mask
}

// CounterBank is an array of counters sharing one decoder — the serial
// test's 2^m pattern counters. Structurally it is cheaper than 2^m
// independent counters because only one counter's enable is active per
// clock; behaviourally it is an indexed increment.
type CounterBank struct {
	name   string
	n      int
	width  int
	values []uint64
}

// NewCounterBank creates n counters, each wide enough to count to max.
func NewCounterBank(nl *Netlist, name string, n int, max uint64) *CounterBank {
	return NewCounterBankOver(nl, name, make([]uint64, n), max)
}

// NewCounterBankOver creates one counter per element of values, each wide
// enough to count to max, storing its counts in values: storage the bank
// shares with another model of the same hardware.
func NewCounterBankOver(nl *Netlist, name string, values []uint64, max uint64) *CounterBank {
	b := &CounterBank{name: name, n: len(values), width: WidthFor(max), values: values}
	nl.add(b)
	return b
}

// PrimName implements Primitive.
func (b *CounterBank) PrimName() string {
	return fmt.Sprintf("bank %s[%dx%d]", b.name, b.n, b.width)
}

// Info implements Described.
func (b *CounterBank) Info() PrimInfo {
	return PrimInfo{Kind: "bank", Name: b.name, Width: b.width, Lanes: b.n}
}

// Resources implements Primitive: n·width FFs. Synthesis tools implement
// each counter's increment as its own carry chain (sharing one incrementer
// across registers would need a full read mux, which costs more), so the
// LUT cost is ~width/2 per counter (carry-chain packing) plus the enable
// decoder.
func (b *CounterBank) Resources() Resources {
	return Resources{FFs: b.n * b.width, LUTs: b.n*b.width/2 + b.n/4 + 1}
}

// Reset implements Primitive.
func (b *CounterBank) Reset() {
	for i := range b.values {
		b.values[i] = 0
	}
}

// CounterWidth reports the carry-chain width for the timing model.
func (b *CounterBank) CounterWidth() int { return b.width }

// Inc increments counter i.
func (b *CounterBank) Inc(i int) {
	b.values[i] = (b.values[i] + 1) & (1<<uint(b.width) - 1)
}

// Value returns counter i.
func (b *CounterBank) Value(i int) uint64 { return b.values[i] }

// Ref returns the address of counter i's live value, for a reader that
// samples it without a call: a register-file multiplexer leg. The bank
// never reallocates its counters; only its own methods and the storage's
// other model (NewCounterBankOver) write them.
func (b *CounterBank) Ref(i int) *uint64 { return &b.values[i] }

// Len returns the number of counters in the bank.
func (b *CounterBank) Len() int { return b.n }
