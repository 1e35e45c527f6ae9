package hwsim

import "testing"

// These tests pin the mask-on-load contract at the width boundaries the
// shipped designs actually use: 1 bit (runs_prev), 15/16 bits (either side
// of the bus width) and 22 bits (the widest counter-like primitive of the
// n=2^20 designs, the cusum up/down counter). designlint's reset rule
// plants state through Load and asserts Reset clears it; that is only a
// valid probe if Load itself observes the declared width, which is exactly
// what is pinned here.

// maskWidths are the boundary widths under test. 22 is the widest counter
// width any shipped variant constructs (WidthFor(2^20)+1 for the signed
// walk; the unsigned global counter reaches 21).
var maskWidths = []int{1, 15, 16, 22}

// counterOfWidth builds a counter whose declared width is exactly w by
// asking for the largest count that still fits.
func counterOfWidth(t *testing.T, nl *Netlist, w int) *Counter {
	t.Helper()
	c := NewCounter(nl, "c", 1<<uint(w)-1)
	if c.Width() != w {
		t.Fatalf("NewCounter(max=2^%d-1) built width %d, want %d", w, c.Width(), w)
	}
	return c
}

// TestCounterWidthBoundary pins widthFor at the power-of-two boundary:
// counting to 2^w-1 needs w bits, counting to exactly 2^w needs w+1.
func TestCounterWidthBoundary(t *testing.T) {
	nl := NewNetlist("t")
	for _, w := range maskWidths {
		if got := NewCounter(nl, "a", 1<<uint(w)-1).Width(); got != w {
			t.Errorf("max=2^%d-1: width %d, want %d", w, got, w)
		}
		if got := NewCounter(nl, "b", 1<<uint(w)).Width(); got != w+1 {
			t.Errorf("max=2^%d: width %d, want %d", w, got, w+1)
		}
	}
}

// TestCounterLoadMasks: Load truncates to the declared width — every bit
// above it is dropped, exactly as a parallel load port into w flip-flops
// would behave.
func TestCounterLoadMasks(t *testing.T) {
	for _, w := range maskWidths {
		nl := NewNetlist("t")
		c := counterOfWidth(t, nl, w)
		mask := uint64(1)<<uint(w) - 1
		loads := []uint64{0, 1, mask - 1, mask, mask + 1, mask + 5,
			1 << uint(w), 1<<uint(w) | 3, ^uint64(0)}
		for _, v := range loads {
			c.Load(v)
			if got, want := c.Value(), v&mask; got != want {
				t.Errorf("width %d: Load(%#x) = %#x, want %#x", w, v, got, want)
			}
		}
	}
}

// TestCounterIncWraps: incrementing past the all-ones value wraps to zero
// (mod 2^width), and every step below the top increments by exactly one.
func TestCounterIncWraps(t *testing.T) {
	for _, w := range maskWidths {
		nl := NewNetlist("t")
		c := counterOfWidth(t, nl, w)
		mask := uint64(1)<<uint(w) - 1
		c.Load(mask - 1)
		c.Inc()
		if c.Value() != mask {
			t.Errorf("width %d: Inc from max-1 = %#x, want %#x", w, c.Value(), mask)
		}
		c.Inc()
		if c.Value() != 0 {
			t.Errorf("width %d: Inc from all-ones = %#x, want 0", w, c.Value())
		}
		c.Inc()
		if c.Value() != 1 {
			t.Errorf("width %d: Inc after wrap = %#x, want 1", w, c.Value())
		}
	}
}

// TestCounterWidth1Exhaustive walks the full state space of a 1-bit
// counter: both load values at every bit position above and below the
// width, and the 0→1→0 increment cycle.
func TestCounterWidth1Exhaustive(t *testing.T) {
	nl := NewNetlist("t")
	c := counterOfWidth(t, nl, 1)
	for v := uint64(0); v < 8; v++ {
		c.Load(v)
		if got := c.Value(); got != v&1 {
			t.Errorf("Load(%d) = %d, want %d", v, got, v&1)
		}
		if got := c.Bit(0); got != byte(v&1) {
			t.Errorf("Bit(0) after Load(%d) = %d, want %d", v, got, v&1)
		}
	}
	c.Load(0)
	for i, want := range []uint64{1, 0, 1, 0} {
		c.Inc()
		if c.Value() != want {
			t.Errorf("step %d: value %d, want %d", i, c.Value(), want)
		}
	}
}

// TestRegisterLoadMasks pins the same truncation contract for the plain
// register primitive (the block-frequency bank and the serial head storage
// rely on it).
func TestRegisterLoadMasks(t *testing.T) {
	for _, w := range maskWidths {
		nl := NewNetlist("t")
		r := NewRegister(nl, "r", 1<<uint(w)-1)
		if r.Width() != w {
			t.Fatalf("NewRegister(max=2^%d-1) built width %d", w, r.Width())
		}
		mask := uint64(1)<<uint(w) - 1
		for _, v := range []uint64{0, 1, mask, mask + 1, 1 << uint(w), ^uint64(0)} {
			r.Load(v)
			if got, want := r.Value(), v&mask; got != want {
				t.Errorf("width %d: Load(%#x) = %#x, want %#x", w, v, got, want)
			}
		}
		r.Load(mask)
		r.Reset()
		if r.Value() != 0 {
			t.Errorf("width %d: Reset left %#x", w, r.Value())
		}
	}
}

// TestSharedStoragePrimitives: a bank built over shared storage counts in
// that storage, each lane masked to the bank width on its own, and a
// register built at a shared word loads it through the same mask.
func TestSharedStoragePrimitives(t *testing.T) {
	for _, w := range maskWidths {
		nl := NewNetlist("t")
		mask := uint64(1)<<uint(w) - 1
		store := []uint64{mask, mask, mask - 1, mask}
		b := NewCounterBankOver(nl, "b", store, mask)
		if b.Len() != len(store) || b.Ref(1) != &store[1] {
			t.Fatalf("width %d: bank of %d counters does not live in the %d-word store", w, b.Len(), len(store))
		}
		b.Inc(2)
		b.Inc(3) // wrap from all-ones
		if store[2] != mask || store[3] != 0 || store[1] != mask {
			t.Errorf("width %d: store after Inc(2), Inc(3) = %#x, want [%#x %#x %#x 0]", w, store, mask, mask, mask)
		}
		r := NewRegisterAt(nl, "r", mask, &store[0])
		r.Load(mask + 2)
		if store[0] != 1 || r.Value() != 1 || r.Ref() != &store[0] {
			t.Errorf("width %d: Load(mask+2) stored %#x, want 1", w, store[0])
		}
		nl.Reset()
		for i, v := range store {
			if v != 0 {
				t.Errorf("width %d: Reset left %#x in store word %d", w, v, i)
			}
		}
	}
}

// TestInfoMatchesConstruction pins the Described inventory designlint
// reads: kind, name and geometry reflect what was constructed.
func TestInfoMatchesConstruction(t *testing.T) {
	nl := NewNetlist("t")
	cases := []struct {
		prim Described
		want PrimInfo
	}{
		{NewCounter(nl, "cnt", 1000), PrimInfo{"counter", "cnt", 10, 1}},
		{NewUpDownCounter(nl, "ud", 1000), PrimInfo{"updown", "ud", 11, 1}},
		{NewRegister(nl, "reg", 255), PrimInfo{"register", "reg", 8, 1}},
		{NewMinMaxTracker(nl, "mm", 128), PrimInfo{"minmax", "mm", 9, 1}},
		{NewMaxTracker(nl, "mx", 16), PrimInfo{"max", "mx", 5, 1}},
		{NewShiftReg(nl, "sr", 9), PrimInfo{"shiftreg", "sr", 9, 1}},
		{NewEqComparator(nl, "eq", 9), PrimInfo{"cmp", "eq", 9, 1}},
		{NewCounterBank(nl, "bk", 16, 127), PrimInfo{"bank", "bk", 7, 16}},
	}
	for _, c := range cases {
		if got := c.prim.Info(); got != c.want {
			t.Errorf("Info() = %+v, want %+v", got, c.want)
		}
	}
	// Every primitive the netlist accumulated must satisfy Described.
	for _, p := range nl.Primitives() {
		if _, ok := p.(Described); !ok {
			t.Errorf("primitive %s does not implement Described", p.PrimName())
		}
	}
}
