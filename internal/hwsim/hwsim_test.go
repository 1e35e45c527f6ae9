package hwsim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestWidthFor(t *testing.T) {
	cases := []struct {
		max  uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {127, 7}, {128, 8},
		{65535, 16}, {65536, 17}, {1048576, 21},
	}
	for _, c := range cases {
		if got := WidthFor(c.max); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestCounterCountsAndWraps(t *testing.T) {
	nl := NewNetlist("t")
	c := NewCounter(nl, "c", 3) // 2 bits
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	if c.Value() != 3 {
		t.Errorf("Value = %d, want 3", c.Value())
	}
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("counter did not wrap: %d", c.Value())
	}
}

func TestCounterBitForBlockDetection(t *testing.T) {
	nl := NewNetlist("t")
	c := NewCounter(nl, "global", 1<<20)
	// After 128 increments, bit 7 rises — a 128-bit block boundary.
	for i := 0; i < 128; i++ {
		if c.Bit(7) != 0 {
			t.Fatalf("bit 7 set after only %d increments", i)
		}
		c.Inc()
	}
	if c.Bit(7) != 1 {
		t.Error("bit 7 not set after 128 increments")
	}
}

func TestCounterReset(t *testing.T) {
	nl := NewNetlist("t")
	c := NewCounter(nl, "c", 100)
	c.Inc()
	c.Inc()
	c.Reset()
	if c.Value() != 0 {
		t.Errorf("Value after reset = %d", c.Value())
	}
}

func TestUpDownCounter(t *testing.T) {
	nl := NewNetlist("t")
	c := NewUpDownCounter(nl, "walk", 128)
	c.Inc()
	c.Inc()
	c.Dec()
	c.Dec()
	c.Dec()
	if c.Value() != -1 {
		t.Errorf("Value = %d, want -1", c.Value())
	}
	if c.CounterWidth() != WidthFor(128)+1 {
		t.Errorf("width = %d", c.CounterWidth())
	}
}

func TestRegister(t *testing.T) {
	nl := NewNetlist("t")
	r := NewRegister(nl, "r", 255)
	r.Load(0x1AB) // truncated to 8 bits
	if r.Value() != 0xAB {
		t.Errorf("Value = %#x, want 0xAB", r.Value())
	}
}

func TestMinMaxTracker(t *testing.T) {
	nl := NewNetlist("t")
	tr := NewMinMaxTracker(nl, "s", 1024)
	for _, v := range []int64{1, 5, -3, 2, -7, 4} {
		tr.Update(v)
	}
	if tr.Max() != 5 || tr.Min() != -7 {
		t.Errorf("minmax = (%d, %d), want (-7, 5)", tr.Min(), tr.Max())
	}
	tr.Reset()
	if tr.Max() != 0 || tr.Min() != 0 {
		t.Error("reset did not zero extrema")
	}
}

func TestMaxTracker(t *testing.T) {
	nl := NewNetlist("t")
	tr := NewMaxTracker(nl, "run", 128)
	tr.Update(3)
	tr.Update(7)
	tr.Update(5)
	if tr.Max() != 7 {
		t.Errorf("Max = %d, want 7", tr.Max())
	}
	tr.Clear()
	if tr.Max() != 0 {
		t.Error("Clear did not zero")
	}
}

func TestShiftRegWindow(t *testing.T) {
	nl := NewNetlist("t")
	sr := NewShiftReg(nl, "sr", 4)
	for _, b := range []byte{1, 0, 1, 1} {
		sr.Shift(b)
	}
	// Oldest bit (1) in MSB position: window = 1011.
	if got := sr.Window(4); got != 0b1011 {
		t.Errorf("Window(4) = %04b, want 1011", got)
	}
	if got := sr.Window(2); got != 0b11 {
		t.Errorf("Window(2) = %02b, want 11", got)
	}
	if !sr.Full() {
		t.Error("Full = false after len shifts")
	}
}

func TestShiftRegFill(t *testing.T) {
	nl := NewNetlist("t")
	sr := NewShiftReg(nl, "sr", 8)
	if sr.Full() {
		t.Error("fresh register reports full")
	}
	for i := 0; i < 5; i++ {
		sr.Shift(1)
	}
	if sr.Fill() != 5 || sr.Full() {
		t.Errorf("Fill = %d, Full = %v", sr.Fill(), sr.Full())
	}
}

func TestShiftRegPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for length 0")
		}
	}()
	NewShiftReg(NewNetlist("t"), "bad", 0)
}

func TestEqComparator(t *testing.T) {
	nl := NewNetlist("t")
	c := NewEqComparator(nl, "tpl", 9)
	if !c.Matches(0b000000001, 0b000000001) {
		t.Error("equal values did not match")
	}
	if c.Matches(0b000000011, 0b000000001) {
		t.Error("unequal values matched")
	}
	// Only the low 9 bits participate.
	if !c.Matches(0x200|0b1, 0b1) {
		t.Error("comparator looked beyond its width")
	}
}

func TestCounterBank(t *testing.T) {
	nl := NewNetlist("t")
	b := NewCounterBank(nl, "nu", 16, 65536)
	b.Inc(3)
	b.Inc(3)
	b.Inc(15)
	if b.Value(3) != 2 || b.Value(15) != 1 || b.Value(0) != 0 {
		t.Error("bank counts wrong")
	}
	b.Reset()
	if b.Value(3) != 0 {
		t.Error("bank reset failed")
	}
	if b.Len() != 16 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestNetlistTotalAndReset(t *testing.T) {
	nl := NewNetlist("design")
	c := NewCounter(nl, "a", 255)
	sr := NewShiftReg(nl, "b", 9)
	tot := nl.Total()
	wantFF := 8 + 9
	if tot.FFs != wantFF {
		t.Errorf("total FFs = %d, want %d", tot.FFs, wantFF)
	}
	c.Inc()
	sr.Shift(1)
	nl.Reset()
	if c.Value() != 0 || sr.Fill() != 0 {
		t.Error("netlist reset did not reach primitives")
	}
}

func TestNetlistMaxCounterWidth(t *testing.T) {
	nl := NewNetlist("t")
	NewCounter(nl, "small", 100)
	NewUpDownCounter(nl, "walk", 1<<20)
	NewCounterBank(nl, "bank", 4, 1000)
	if got := nl.MaxCounterWidth(); got != WidthFor(1<<20)+1 {
		t.Errorf("MaxCounterWidth = %d, want %d", got, WidthFor(1<<20)+1)
	}
}

func TestDescribeIncludesEveryPrimitive(t *testing.T) {
	nl := NewNetlist("demo")
	NewCounter(nl, "ones", 65536)
	NewShiftReg(nl, "pattern", 9)
	nl.SetMuxWords(10)
	d := nl.Describe()
	for _, want := range []string{"demo", "ones", "pattern", "TOTAL"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() missing %q:\n%s", want, d)
		}
	}
}

func TestEstimateFPGAMonotoneInResources(t *testing.T) {
	small := NewNetlist("small")
	NewCounter(small, "c", 255)
	small.SetMuxWords(2)

	big := NewNetlist("big")
	for i := 0; i < 20; i++ {
		NewCounter(big, "c", 1<<20)
	}
	big.SetMuxWords(64)

	es, eb := EstimateFPGA(small), EstimateFPGA(big)
	if eb.Slices <= es.Slices || eb.LUTs <= es.LUTs || eb.FFs <= es.FFs {
		t.Errorf("bigger design not bigger: small=%+v big=%+v", es, eb)
	}
	if eb.FmaxMHz >= es.FmaxMHz {
		t.Errorf("bigger design not slower: small=%.1f big=%.1f", es.FmaxMHz, eb.FmaxMHz)
	}
}

func TestEstimateFPGAAbove100MHz(t *testing.T) {
	// The paper reports all eight designs above 100 MHz; even a large
	// netlist in this model family must stay above that.
	nl := NewNetlist("big")
	for i := 0; i < 30; i++ {
		NewCounter(nl, "c", 1<<20)
	}
	nl.SetMuxWords(128)
	if f := EstimateFPGA(nl).FmaxMHz; f < 100 {
		t.Errorf("Fmax = %.1f MHz, model should stay above 100", f)
	}
}

func TestEstimateASICTracksFPGA(t *testing.T) {
	nl := NewNetlist("t")
	NewCounter(nl, "c", 65536)
	NewCounterBank(nl, "bank", 28, 1<<20)
	nl.SetMuxWords(40)
	ge := EstimateASIC(nl).GE
	if ge <= 0 {
		t.Fatalf("GE = %d", ge)
	}
	// GE must grow if resources grow.
	NewCounter(nl, "c2", 1<<20)
	if EstimateASIC(nl).GE <= ge {
		t.Error("ASIC estimate not monotone")
	}
}

// Property: counters faithfully count any number of increments below their
// capacity.
func TestCounterCountsProperty(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw) % 5000
		nl := NewNetlist("p")
		c := NewCounter(nl, "c", 5000)
		for i := 0; i < n; i++ {
			c.Inc()
		}
		return c.Value() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a shift register window equals the last w bits of the input,
// oldest in the MSB.
func TestShiftRegWindowProperty(t *testing.T) {
	f := func(bits []byte) bool {
		if len(bits) < 4 {
			return true
		}
		nl := NewNetlist("p")
		sr := NewShiftReg(nl, "sr", 4)
		for _, b := range bits {
			sr.Shift(b)
		}
		want := uint64(0)
		for _, b := range bits[len(bits)-4:] {
			want = want<<1 | uint64(b&1)
		}
		return sr.Window(4) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
