package core

import (
	"strings"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/sweval"
	"repro/internal/trng"
)

// feedWords drives one monitor with a deterministic word stream, including
// a mid-stream bus read (forcing the fast path's lazy publish) and a
// trailing partial word (leaving pending-word state in the hwfast ingest
// buffer). It returns the completed reports.
func feedWords(t *testing.T, m *Monitor, seed int64, words int) []SequenceReport {
	t.Helper()
	rng := trng.NewIdeal(seed)
	word := func() uint64 {
		var w uint64
		for b := 0; b < 64; b++ {
			bit, err := rng.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			w |= uint64(bit&1) << uint(b)
		}
		return w
	}
	var out []SequenceReport
	for i := 0; i < words; i++ {
		rep, err := m.FeedWord(word(), 64)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			out = append(out, *rep)
		}
		if i == words/2 {
			// A mid-sequence bus read exercises the publish/dirty machinery
			// of the fast ingest path.
			m.Block().RegFile().ReadWord(0)
		}
	}
	// Leave 13 pending bits so per-run ingest state is non-trivial.
	if _, err := m.FeedWord(word(), 13); err != nil {
		t.Fatal(err)
	}
	return out
}

// regImage snapshots the full register file (publishing pending state
// first, as any bus master would).
func regImage(m *Monitor) []uint16 {
	rf := m.Block().RegFile()
	img := make([]uint16, rf.Words())
	for a := range img {
		img[a] = rf.ReadWord(a)
	}
	return img
}

// TestMonitorResetNoCrossTenantContamination is the pooled-reuse
// regression test: a monitor that digested one tenant's stream — pending
// hwfast word state, mid-sequence counters, retained history and all —
// must behave bit-identically to a factory-fresh monitor after Reset.
func TestMonitorResetNoCrossTenantContamination(t *testing.T) {
	dirty := newMonitor(t, 128, hwblock.Light, 0.01)

	// Tenant A leaves every kind of per-run state behind.
	aReports := feedWords(t, dirty, 41, 5)
	if len(aReports) == 0 {
		t.Fatal("tenant A completed no sequences")
	}
	held := dirty.History()
	if dirty.SequenceBits() == 0 {
		t.Fatal("tenant A should leave a partial sequence in flight")
	}

	dirty.Reset()

	if dirty.BitsSeen() != 0 || dirty.SequenceBits() != 0 || len(dirty.History()) != 0 {
		t.Fatalf("Reset left bits=%d seqbits=%d history=%d",
			dirty.BitsSeen(), dirty.SequenceBits(), len(dirty.History()))
	}
	// The vacated history backing array holds no stale reports: a recycled
	// monitor must not keep the previous tenant's verdicts reachable.
	for i := range held {
		if held[i] != (SequenceReport{}) {
			t.Fatalf("history entry %d not zeroed after Reset: %+v", i, held[i])
		}
	}

	// Tenant B on the recycled monitor vs. the same stream on a fresh one.
	fresh := newMonitor(t, 128, hwblock.Light, 0.01)
	bDirty := feedWords(t, dirty, 97, 5)
	bFresh := feedWords(t, fresh, 97, 5)
	if len(bDirty) != len(bFresh) {
		t.Fatalf("recycled monitor completed %d sequences, fresh %d", len(bDirty), len(bFresh))
	}
	for i := range bDirty {
		got, want := bDirty[i], bFresh[i]
		if got.Index != want.Index || got.StartBit != want.StartBit {
			t.Fatalf("sequence %d bookkeeping diverged: got (%d,%d) want (%d,%d)",
				i, got.Index, got.StartBit, want.Index, want.StartBit)
		}
		if !reportsAgree(got.Report, want.Report) {
			t.Fatalf("sequence %d verdicts diverged between recycled and fresh monitor", i)
		}
	}
	// The hardware state itself — down to the pending ingest bits — is
	// identical: the published register images agree word for word.
	gi, wi := regImage(dirty), regImage(fresh)
	for a := range wi {
		if gi[a] != wi[a] {
			t.Fatalf("register word %d: recycled %04x, fresh %04x (ingest state leaked)",
				a, gi[a], wi[a])
		}
	}
	if dirty.BitsSeen() != fresh.BitsSeen() {
		t.Fatalf("bits seen diverged: %d vs %d", dirty.BitsSeen(), fresh.BitsSeen())
	}
}

// TestMonitorResetSharedCriticalValues pins the fleet constructor: a
// monitor built around shared critical values must reject a mismatched
// design and evaluate identically to a self-derived one.
func TestMonitorResetSharedCriticalValues(t *testing.T) {
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewMonitorWithValues(cfg, cv)
	if err != nil {
		t.Fatal(err)
	}
	own := newMonitor(t, 128, hwblock.Light, 0.01)
	a := feedWords(t, shared, 7, 4)
	b := feedWords(t, own, 7, 4)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("got %d vs %d sequences", len(a), len(b))
	}
	for i := range a {
		if !reportsAgree(a[i].Report, b[i].Report) {
			t.Fatalf("sequence %d: shared-CV verdicts diverge", i)
		}
	}
	if _, err := NewMonitorWithValues(cfg, nil); err == nil {
		t.Fatal("nil critical values accepted")
	}
	other, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMonitorWithValues(other, cv); err == nil {
		t.Fatal("critical values for a different design accepted")
	}
}

// TestMonitorWithValuesRejectsDesignMismatch builds monitors for designs
// that share the critical values' name but not their sequence length,
// tests or parameters: each must be refused, not run one design's
// constants against another's counters.
func TestMonitorWithValuesRejectsDesignMismatch(t *testing.T) {
	custom := func(name string, n int, tests ...int) hwblock.Config {
		cfg, err := hwblock.NewCustomConfig(name, n, tests)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	cfg := custom("y", 1024, 1, 13)
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	params := cfg
	params.Params.TemplateM++
	for _, c := range []struct {
		name string
		cfg  hwblock.Config
		want string
	}{
		{"n=512", custom("y", 512, 1, 13), "n = 1024, not 512"},
		{"n=2048", custom("y", 2048, 1, 13), "n = 1024, not 2048"},
		{"n=4096", custom("y", 4096, 1, 13), "n = 1024, not 4096"},
		{"more tests", custom("y", 1024, 1, 2, 3, 4, 11, 12, 13), "tests [1 13], not [1 2 3 4 11 12 13]"},
		{"other parameters", params, "parameters"},
	} {
		if _, err := NewMonitorWithValues(c.cfg, cv); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, err := NewMonitorWithValues(cfg, cv); err != nil {
		t.Fatalf("the critical values' design: %v", err)
	}
}

// TestMonitorsShareRegMap: monitors built around one set of critical
// values share its register map, and so do their blocks.
func TestMonitorsShareRegMap(t *testing.T) {
	cfg, err := hwblock.NewConfig(65536, hwblock.High)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewMonitorWithValues(cfg, cv)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMonitorWithValues(cfg, cv)
	if err != nil {
		t.Fatal(err)
	}
	if a.Block().RegMap() != cv.RegMap() || b.Block().RegMap() != cv.RegMap() {
		t.Fatal("monitors built on one set of critical values do not share its register map")
	}
}

// TestSupervisorResetClearsRunState pins Supervisor.Reset for pooled
// reuse: after a degraded, failed-over run, Reset must restore the
// just-built state (primary source, no latch, no breaker progress, empty
// timeline) and a subsequent clean run must come out OK.
func TestSupervisorResetClearsRunState(t *testing.T) {
	m := newMonitor(t, 128, hwblock.Light, 0.01)
	primary := newFiniteSource(3, 200) // dies hard mid-second-sequence
	standby := trng.NewIdeal(4)
	sup := NewSupervisor(m, primary, standby, SupervisorConfig{})
	rep, err := sup.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Condition != FailedOver || len(rep.Events) == 0 {
		t.Fatalf("setup run: condition=%v events=%d, want failed-over with incidents",
			rep.Condition, len(rep.Events))
	}

	held := sup.Events()
	sup.Reset()
	if c := sup.Condition(); c != OK {
		t.Fatalf("condition after Reset = %v, want OK", c)
	}
	if len(sup.Events()) != 0 || sup.Quarantined() != 0 || sup.Retries() != 0 {
		t.Fatalf("Reset left events=%d quarantined=%d retries=%d",
			len(sup.Events()), sup.Quarantined(), sup.Retries())
	}
	for i := range held {
		if held[i] != (Event{}) {
			t.Fatalf("event backing entry %d not zeroed: %+v", i, held[i])
		}
	}
	if m.BitsSeen() != 0 || len(m.History()) != 0 {
		t.Fatal("Reset did not reset the supervised monitor")
	}

	// The recycled supervisor starts over on the (restored) primary: the
	// finite primary is exhausted, so the second run must fail over AGAIN
	// — if Reset had left src on the standby, this run would be a clean OK
	// with no failover event.
	rep2, err := sup.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Condition != FailedOver {
		t.Fatalf("second run condition = %v, want failed-over from the restored primary", rep2.Condition)
	}
	if rep2.FailoverBit != 0 {
		t.Fatalf("second failover at bit %d, want 0 (primary already exhausted)", rep2.FailoverBit)
	}
}
