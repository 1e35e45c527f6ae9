package faultinject

import (
	"errors"
	"testing"
	"time"

	"repro/internal/hwblock"
	"repro/internal/trng"
)

func TestScheduleIsDeterministic(t *testing.T) {
	a := NewSchedule(0.1, 3, 42)
	b := NewSchedule(0.1, 3, 42)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("schedules diverged at event %d", i)
		}
	}
	if a.Fired() != b.Fired() {
		t.Fatalf("fired counts diverged: %d vs %d", a.Fired(), b.Fired())
	}
	if a.Fired() == 0 {
		t.Error("rate-0.1 schedule never fired in 10000 events")
	}
}

func TestScheduleBurstLength(t *testing.T) {
	// rate 0 after a forced fire: emulate by rate 1 for one event. Use a
	// tiny rate and scan for an isolated burst instead.
	s := NewSchedule(0.001, 5, 7)
	run := 0
	sawBurst := false
	for i := 0; i < 100000; i++ {
		if s.Next() {
			run++
		} else {
			if run >= 5 {
				sawBurst = true
			}
			run = 0
		}
	}
	if !sawBurst {
		t.Error("no burst of the configured length observed")
	}
}

func TestFlakyRetryRecoversInnerStream(t *testing.T) {
	want := trng.Read(trng.NewIdeal(3), 500)
	f := NewFlaky(trng.NewIdeal(3), 0.05, 2, 99)
	var got []byte
	for len(got) < 500 {
		b, err := f.ReadBit()
		if err != nil {
			if !errors.Is(err, trng.ErrTransient) {
				t.Fatalf("injected fault is not transient: %v", err)
			}
			continue
		}
		got = append(got, b)
	}
	if f.Injected() == 0 {
		t.Fatal("no faults injected at rate 0.05 over 500+ reads")
	}
	for i := range got {
		if got[i] != want.Bit(i) {
			t.Fatalf("bit %d: retried stream diverged from inner stream", i)
		}
	}
}

func TestFlakyIsDeterministic(t *testing.T) {
	errsAt := func() []int {
		f := NewFlaky(trng.NewIdeal(1), 0.1, 1, 5)
		var at []int
		for i := 0; i < 1000; i++ {
			if _, err := f.ReadBit(); err != nil {
				at = append(at, i)
			}
		}
		return at
	}
	a, b := errsAt(), errsAt()
	if len(a) != len(b) {
		t.Fatalf("fault counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d at call %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStallBlocksThenReleases(t *testing.T) {
	s := NewStall(trng.NewIdeal(1), 3)
	for i := 0; i < 3; i++ {
		if _, err := s.ReadBit(); err != nil {
			t.Fatalf("read %d before stall: %v", i, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.ReadBit()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled read returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.Release()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStalled) {
			t.Errorf("released read error = %v, want ErrStalled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("release did not unblock the stalled read")
	}
	// Post-release reads fail immediately.
	if _, err := s.ReadBit(); !errors.Is(err, ErrStalled) {
		t.Errorf("post-release read error = %v, want ErrStalled", err)
	}
}

// smallBlock returns the n = 128 light block, its GLOBAL_BITS (address 0)
// counting the 0x35 bits it has been fed.
func smallBlock(t *testing.T) *hwblock.Block {
	t.Helper()
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ClockWord(0, 0x35); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegCorruptorDoubleReadDisagrees(t *testing.T) {
	rf := smallBlock(t).RegFile()
	c := CorruptRegFile(rf, 1.0, 3) // every read corrupted
	defer c.Detach()
	// With independent single-bit flips per transaction, two reads of the
	// same address agree only if both flips hit the same bit — detectable
	// disagreement is overwhelmingly likely over a few tries.
	agree := 0
	for i := 0; i < 16; i++ {
		if rf.ReadWord(0) == rf.ReadWord(0) {
			agree++
		}
	}
	if agree == 16 {
		t.Error("corrupted double reads always agreed")
	}
	if c.Injected() != 32 {
		t.Errorf("Injected = %d, want 32", c.Injected())
	}
}

func TestRegCorruptorDetach(t *testing.T) {
	rf := smallBlock(t).RegFile()
	c := CorruptRegFile(rf, 1.0, 3)
	if rf.ReadWord(0) == 0x35 {
		t.Error("rate-1.0 corruptor left a read clean")
	}
	c.Detach()
	if got := rf.ReadWord(0); got != 0x35 {
		t.Errorf("read after Detach = %#x", got)
	}
}

func TestInjectorNames(t *testing.T) {
	inner := trng.NewIdeal(1)
	cases := []struct {
		src  trng.Source
		want string
	}{
		{NewFlaky(inner, 0.1, 1, 1), "flaky(ideal)"},
		{NewStall(inner, 10), "stall(ideal)"},
	}
	for _, c := range cases {
		if got := c.src.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}
