package sweval

import (
	"fmt"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/trng"
)

// TestUnmeteredMatchesMetered is the differential test of the two entry
// points: on every shipped design and the all-tests custom designs at
// n = 256 and 1024, over both ingest paths, an ideal and a biased source
// and every word size, EvaluateVerdicts reaches the metered pass's
// verdicts (TestID, Pass, Statistic, Threshold, Note) with zero costs and
// reads the bus words the metered pass charges as READ. The unmetered pass
// runs into the report that holds the metered one, so a reused report
// keeps no stale cost.
func TestUnmeteredMatchesMetered(t *testing.T) {
	cfgs := hwblock.AllConfigs()
	for _, n := range []int{256, 1024} {
		cfgs = append(cfgs, mustCustom(t, fmt.Sprintf("all-n%d", n), n, 1, 2, 3, 4, 7, 8, 11, 12, 13))
	}
	for _, cfg := range cfgs {
		cv, err := NewCriticalValues(cfg, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []hwblock.IngestPath{hwblock.FastPath, hwblock.CycleAccurate} {
			for _, src := range []trng.Source{trng.NewIdeal(51), trng.NewBiased(0.6, 52)} {
				b, err := hwblock.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.SetPath(path); err != nil {
					t.Fatal(err)
				}
				if err := b.Run(bitstream.NewReader(trng.Read(src, cfg.N))); err != nil {
					t.Fatal(err)
				}
				for _, wb := range []int{WordSize16, WordSize32, WordSize64} {
					ev, err := NewEvaluatorWordSize(cv, wb)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/%s/%T/%d-bit", cfg.Name, path, src, wb)
					var rep Report
					if err := ev.EvaluateInto(b, &rep); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					metered := rep
					metered.Verdicts = append([]Verdict(nil), rep.Verdicts...)
					pre := b.RegFile().BusReads()
					if err := ev.EvaluateVerdicts(b, &rep); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					compareUnmetered(t, name, &rep, &metered, b.RegFile().BusReads()-pre)
				}
			}
		}
	}
}

// compareUnmetered checks an unmetered report against the metered one of
// the same block; bus is the words the unmetered pass moved on the bus.
func compareUnmetered(t *testing.T, name string, got, metered *Report, bus int64) {
	t.Helper()
	if len(got.Verdicts) != len(metered.Verdicts) {
		t.Fatalf("%s: %d verdicts unmetered, %d metered", name, len(got.Verdicts), len(metered.Verdicts))
	}
	for i := range got.Verdicts {
		g, w := got.Verdicts[i], metered.Verdicts[i]
		if g.Cost != (Cost{}) {
			t.Errorf("%s: test %d costs %v unmetered", name, g.TestID, g.Cost)
		}
		w.Cost = Cost{}
		if g != w {
			t.Errorf("%s: unmetered verdict %+v, metered %+v", name, g, w)
		}
	}
	if got.Cost != (Cost{}) {
		t.Errorf("%s: unmetered report costs %v", name, got.Cost)
	}
	if read := metered.Cost.Get(OpRead); got.BusWords != read || metered.BusWords != read || bus != int64(read) {
		t.Errorf("%s: bus words %d unmetered, %d metered, %d on the bus; metered READ %d",
			name, got.BusWords, metered.BusWords, bus, read)
	}
}

// TestMeterOffChargesNothing runs every ALU helper on wide operands through
// a meter that is off and one that is on: both compute the same values,
// and only the one that is on charges. An unmetered pass drops its meters'
// costs, so a helper that still charged would show only as lost speed.
func TestMeterOffChargesNothing(t *testing.T) {
	run := func(m *meter) []int64 {
		a, b := int64(1)<<40+3, -(int64(1) << 33)
		gt := int64(0)
		if m.cmpGreater(a, b) {
			gt = 1
		}
		m.lut()
		m.read(3)
		return []int64{m.add(a, b), m.sub(a, b), m.mul(a, b), m.sqr(b), m.shl(a, 3), m.shr(b, 2), gt}
	}
	on, off := &meter{}, &meter{off: true}
	if got, want := run(off), run(on); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("off meter computes %v, on meter %v", got, want)
	}
	if off.cost != (Cost{}) {
		t.Errorf("off meter charged %v", off.cost)
	}
	for op := OpAdd; op < numOps; op++ {
		if on.cost[op] == 0 {
			t.Errorf("on meter charged no %v", op)
		}
	}
}
