package core

import (
	"fmt"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/sweval"
	"repro/internal/trng"
)

// TestMonitorMetered feeds one stream to an unmetered, a metered and an
// alternating monitor, each with a registry, over both ingest paths, plain
// and verified word feeds. The verdicts are identical in every mode. Only
// metered reports carry a cost, and only metered passes reach the
// trng_monitor_eval_ops histogram. trng_monitor_bus_read_words_total
// counts every pass's words alike: the metered run's READ sum, in every
// mode.
func TestMonitorMetered(t *testing.T) {
	const seqs = 8
	stream := trng.Read(trng.NewBiased(0.55, 9), seqs*128)
	modes := []struct {
		name    string
		metered func(i int) bool
	}{
		{"metered", func(int) bool { return true }},
		{"unmetered", func(int) bool { return false }},
		{"alternating", func(i int) bool { return i%2 == 1 }},
	}
	for _, path := range []hwblock.IngestPath{hwblock.FastPath, hwblock.CycleAccurate} {
		for _, verify := range []bool{false, true} {
			var want []string // the metered run's verdicts, from the first mode
			var wantBus uint64
			for _, mode := range modes {
				name := fmt.Sprintf("%v/verify=%v/%s", path, verify, mode.name)
				m := newMonitor(t, 128, hwblock.Medium, 0.01)
				if err := m.Block().SetPath(path); err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				m.SetObs(reg)
				r := bitstream.NewReader(stream)
				var verdicts []string
				var read, total, metered int
				for i := 0; i < seqs; i++ {
					m.Metered = mode.metered(i)
					var rep *SequenceReport
					for rep == nil {
						w, _, err := r.ReadWord64(64)
						if err != nil {
							t.Fatal(err)
						}
						if verify {
							rep, err = m.FeedWordVerified(w, 64)
						} else {
							rep, err = m.FeedWord(w, 64)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					cost := rep.Report.Cost
					if !m.Metered {
						if cost != (sweval.Cost{}) {
							t.Errorf("%s: sequence %d: unmetered report costs %v", name, i, cost)
						}
					} else {
						if cost.Total() == 0 || cost.Get(sweval.OpRead) != rep.Report.BusWords {
							t.Errorf("%s: sequence %d: metered cost %v, %d bus words", name, i, cost, rep.Report.BusWords)
						}
						read += cost.Get(sweval.OpRead)
						total += cost.Total()
						metered++
					}
					for _, v := range rep.Report.Verdicts {
						verdicts = append(verdicts, fmt.Sprintf("%d %d %v %d %d %q",
							i, v.TestID, v.Pass, v.Statistic, v.Threshold, v.Note))
					}
				}
				bus := reg.Counter("trng_monitor_bus_read_words_total", "").Value()
				ops := reg.Histogram("trng_monitor_eval_ops", "", nil)
				if ops.Count() != uint64(metered) || ops.Sum() != float64(total) {
					t.Errorf("%s: eval_ops observed %d passes summing %v, want %d summing %d",
						name, ops.Count(), ops.Sum(), metered, total)
				}
				if want == nil {
					want, wantBus = verdicts, uint64(read)
				}
				if fmt.Sprint(verdicts) != fmt.Sprint(want) {
					t.Errorf("%s: verdicts differ from the metered run's", name)
				}
				if bus != wantBus {
					t.Errorf("%s: bus_read_words_total %d, the metered READ sum %d", name, bus, wantBus)
				}
			}
		}
	}
}
