package repro

// This file is the benchmark harness of deliverable (d): one benchmark per
// table and figure of the paper's evaluation section, plus throughput
// benchmarks for the platform itself. `go test -bench=. -benchmem`
// regenerates every experiment; cmd/tablegen prints the same results as
// human-readable tables. Custom metrics attach the reproduced headline
// numbers to the benchmark output.

import (
	"testing"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/firmware"
	"repro/internal/hwblock"
	"repro/internal/hwsim"
	"repro/internal/msp430"
	"repro/internal/nist"
	"repro/internal/sp80090b"
	"repro/internal/sweval"
	"repro/internal/tables"
	"repro/internal/trng"
)

// BenchmarkTableI regenerates Table I: the suitability classification of
// all 15 NIST tests. The metric counts the HW-suitable tests (paper: 9).
func BenchmarkTableI(b *testing.B) {
	suitable := 0
	for i := 0; i < b.N; i++ {
		suitable = 0
		for _, tc := range nist.Suite() {
			if tc.HWSuitable {
				suitable++
			}
		}
		_ = tables.TableI()
	}
	b.ReportMetric(float64(suitable), "suitable-tests")
}

// BenchmarkTableII regenerates Table II: the HW/SW split, verified by
// running the full split pipeline (hardware counters → software decision)
// and confirming it agrees with the reference suite on an ideal sequence.
func BenchmarkTableII(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.High)
	if err != nil {
		b.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	s := trng.Read(trng.NewIdeal(1), cfg.N)
	agreements := 0
	for i := 0; i < b.N; i++ {
		blk, err := hwblock.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := blk.Run(bitstream.NewReader(s)); err != nil {
			b.Fatal(err)
		}
		rep, err := sweval.NewEvaluator(cv).Evaluate(blk)
		if err != nil {
			b.Fatal(err)
		}
		agreements = len(rep.Verdicts)
	}
	b.ReportMetric(float64(agreements), "tests-evaluated")
}

// BenchmarkTableIII regenerates Table III: the eight design points with
// their resource estimates and software instruction counts. Metrics carry
// the headline corners (the paper's "52 slices (5 tests) to 552 slices
// (9 tests)" span).
func BenchmarkTableIII(b *testing.B) {
	var rows []tables.TableIIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.TableIIIData()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Model.Slices), "slices-smallest")
	b.ReportMetric(float64(rows[len(rows)-1].Model.Slices), "slices-largest")
	b.ReportMetric(rows[len(rows)-1].Model.FmaxMHz, "fmax-largest-MHz")
}

// BenchmarkTableIV regenerates Table IV: unified vs individual
// implementations and the software latency on the MSP430 core.
func BenchmarkTableIV(b *testing.B) {
	var d *tables.TableIVData
	var err error
	for i := 0; i < b.N; i++ {
		d, err = tables.TableIVCompute()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*d.Comparison.Saving, "slice-saving-%")
	b.ReportMetric(float64(d.SWCycles), "sw-latency-cycles")
}

// BenchmarkFig3 regenerates Fig. 3: the 32-segment PWL approximation of
// x·log(x) and its error bound (paper: < 3 %).
func BenchmarkFig3(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		tbl := sweval.NewXLogXTable()
		rel = tbl.MaxRelativeError(1.0/32, 10000)
	}
	b.ReportMetric(100*rel, "max-rel-error-%")
}

// BenchmarkFig2 regenerates the Fig. 2 structural dump of the largest
// design.
func BenchmarkFig2(b *testing.B) {
	var words int
	for i := 0; i < b.N; i++ {
		cfg, err := hwblock.NewConfig(1<<20, hwblock.High)
		if err != nil {
			b.Fatal(err)
		}
		blk, err := hwblock.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		words = blk.RegFile().Words()
	}
	b.ReportMetric(float64(words), "regfile-words")
}

// --- platform throughput benchmarks -----------------------------------------

// BenchmarkHWBlockClock measures the cycle-accurate structural
// simulation's ingest rate — one simulated clock per op. The real hardware
// takes one cycle per bit; this rate bounds golden-reference experiment
// turnaround. The path is pinned explicitly because the word-level fast
// path (BenchmarkHWFastIngest) is the default.
func BenchmarkHWBlockClock(b *testing.B) {
	for _, name := range []string{"light", "high"} {
		v := hwblock.Light
		if name == "high" {
			v = hwblock.High
		}
		b.Run("n65536-"+name, func(b *testing.B) {
			cfg, err := hwblock.NewConfig(65536, v)
			if err != nil {
				b.Fatal(err)
			}
			blk, err := hwblock.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := blk.SetPath(hwblock.CycleAccurate); err != nil {
				b.Fatal(err)
			}
			src := trng.NewIdeal(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bit, _ := src.ReadBit()
				if blk.Done() {
					blk.Reset()
				}
				if err := blk.Clock(bit); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "bits/s")
		})
	}
}

// BenchmarkHWFastIngest measures the word-level fast path on the same
// designs, normalized to one bit per op so the ns/op is directly
// comparable with BenchmarkHWBlockClock (acceptance target: ≥ 10×).
func BenchmarkHWFastIngest(b *testing.B) {
	for _, name := range []string{"light", "high"} {
		v := hwblock.Light
		if name == "high" {
			v = hwblock.High
		}
		b.Run("n65536-"+name, func(b *testing.B) {
			cfg, err := hwblock.NewConfig(65536, v)
			if err != nil {
				b.Fatal(err)
			}
			blk, err := hwblock.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r := bitstream.NewReader(trng.Read(trng.NewIdeal(1), cfg.N))
			b.ResetTimer()
			fed := 0
			for fed < b.N {
				if blk.Done() {
					blk.Reset()
					r.Reset()
				}
				take := cfg.N - blk.BitsSeen()
				if take > 64 {
					take = 64
				}
				w, got, err := r.ReadWord64(take)
				if err != nil {
					b.Fatal(err)
				}
				if err := blk.ClockWord(w, got); err != nil {
					b.Fatal(err)
				}
				fed += got
			}
			b.ReportMetric(float64(fed)/b.Elapsed().Seconds(), "bits/s")
		})
	}
}

// BenchmarkMonitorSteadyState measures one full monitored sequence per op
// with the block and history reused across boundaries — the steady-state
// allocation profile (run with -benchmem): once the four-report history
// ring is full a sequence allocates nothing, so allocs/op reads 0.
func BenchmarkMonitorSteadyState(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMonitor(cfg, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	m.KeepHistory = 4
	r := bitstream.NewReader(trng.Read(trng.NewIdeal(7), cfg.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset()
		for {
			bit, err := r.ReadBit()
			if err != nil {
				b.Fatal(err)
			}
			rep, err := m.Feed(bit)
			if err != nil {
				b.Fatal(err)
			}
			if rep != nil {
				break
			}
		}
	}
}

// BenchmarkSWEvaluation measures one software evaluation pass per design
// variant — the work the embedded CPU performs once per sequence. The
// n = 128 designs are the ones where evaluation dominates the host's cost
// per word: a sequence completes every two 64-bit words. Those rows
// re-evaluate a block whose register image is already published; each
// n = 128 design also has a "-fresh" row that resets the block and clocks
// a new sequence (two ClockWords) before every pass, so the pass also pays
// the lazy publish of the fast path's state, as a fleet boundary does.
// Every row is metered (EvaluateInto, the Table III cost model) and has an
// "-unmetered" twin (EvaluateVerdicts, the verdict path core.Monitor and
// the fleet take by default). Every row evaluates into one reused report,
// as core.Monitor does once its history ring is full, so the rows report
// 0 allocs/op.
func BenchmarkSWEvaluation(b *testing.B) {
	for _, cfg := range hwblock.AllConfigs() {
		if cfg.N > 65536 {
			continue
		}
		blk, err := hwblock.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := blk.Run(bitstream.NewReader(trng.Read(trng.NewIdeal(1), cfg.N))); err != nil {
			b.Fatal(err)
		}
		cv, err := sweval.NewCriticalValues(cfg, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		ev := sweval.NewEvaluator(cv)
		var rep sweval.Report
		passes := []struct {
			suffix string
			eval   func(*hwblock.Block, *sweval.Report) error
		}{
			{"", ev.EvaluateInto},
			{"-unmetered", ev.EvaluateVerdicts},
		}
		for _, p := range passes {
			b.Run(cfg.Name+p.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := p.eval(blk, &rep); err != nil {
						b.Fatal(err)
					}
				}
				if p.suffix == "" {
					b.ReportMetric(float64(rep.Cost.Total()), "16bit-instructions")
				}
			})
		}
		if cfg.N != 128 {
			continue
		}
		// Sixteen sequences, two words each, clocked in turn.
		words := make([]uint64, 32)
		r := bitstream.NewReader(trng.Read(trng.NewIdeal(2), 64*len(words)))
		for i := range words {
			if words[i], _, err = r.ReadWord64(64); err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range passes {
			b.Run(cfg.Name+"-fresh"+p.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					blk.Reset()
					seq := words[2*(i%16):]
					if err := blk.ClockWord(seq[0], 64); err != nil {
						b.Fatal(err)
					}
					if err := blk.ClockWord(seq[1], 64); err != nil {
						b.Fatal(err)
					}
					if err := p.eval(blk, &rep); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFirmware measures the MSP430 firmware evaluation — the genuine
// cycle-level latency of Table IV.
func BenchmarkFirmware(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := hwblock.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := blk.Run(bitstream.NewReader(trng.Read(trng.NewIdeal(2), cfg.N))); err != nil {
		b.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, _, err := firmware.Run(blk, cv)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "msp430-cycles")
}

// BenchmarkReferenceSuite measures the full-precision reference tests the
// platform is validated against.
func BenchmarkReferenceSuite(b *testing.B) {
	s := trng.Read(trng.NewIdeal(3), 65536)
	for _, tc := range nist.Suite() {
		tc := tc
		if tc.ID == 9 || tc.ID == 14 || tc.ID == 15 {
			continue // not applicable at this length
		}
		b.Run(tc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.Run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitor measures end-to-end monitored throughput (hardware
// ingest + software check at each boundary).
func BenchmarkMonitor(b *testing.B) {
	design, err := NewDesign(65536, Medium)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMonitor(design, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	src := NewIdealSource(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bit, _ := src.ReadBit()
		if _, err := m.Feed(bit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAreaEstimate measures the structural area model itself.
func BenchmarkAreaEstimate(b *testing.B) {
	cfg, err := hwblock.NewConfig(1<<20, hwblock.High)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := hwblock.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = hwsim.EstimateFPGA(blk.Netlist())
		_ = hwsim.EstimateASIC(blk.Netlist())
	}
}

// --- extension experiments ----------------------------------------------------

// BenchmarkDetectionPower sweeps bias severity and reports the
// single-sequence detection rate at the extremes — the quick-test
// (total failure) vs slow-test (subtle weakness) distinction the paper's
// introduction draws.
func BenchmarkDetectionPower(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		b.Fatal(err)
	}
	var pts []core.PowerPoint
	for i := 0; i < b.N; i++ {
		pts, err = core.PowerSweep(cfg, 0.01, []float64{0.502, 0.506, 0.51}, 6,
			func(sev float64, seed int64) trng.Source {
				return trng.NewBiased(sev, seed*101+int64(sev*1e4))
			})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].DetectionRate, "rate-at-0.502")
	b.ReportMetric(pts[len(pts)-1].DetectionRate, "rate-at-0.510")
}

// BenchmarkPowerSweepWorkers measures the detection-power sweep serially
// and across the GOMAXPROCS worker pool; results are byte-identical, only
// the wall clock changes.
func BenchmarkPowerSweepWorkers(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		b.Fatal(err)
	}
	makeSource := func(sev float64, seed int64) trng.Source {
		return trng.NewBiased(sev, seed*101+int64(sev*1e4))
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PowerSweepWorkers(cfg, 0.01, []float64{0.52}, 16,
					bc.workers, makeSource); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblations quantifies each of the paper's §III-C sharing tricks
// on the n=65536 high design.
func BenchmarkAblations(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.High)
	if err != nil {
		b.Fatal(err)
	}
	var abls []area.Ablation
	for i := 0; i < b.N; i++ {
		abls, err = area.Ablations(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range abls {
		b.ReportMetric(float64(a.DeltaSlices), a.Trick+"-slices")
	}
}

// BenchmarkHealthTestContrast contrasts the SP800-90B continuous health
// tests with the statistical monitor on a 52%-biased source: the health
// tests stay quiet while the monitor detects from one sequence. The
// metrics carry both outcomes.
func BenchmarkHealthTestContrast(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		b.Fatal(err)
	}
	var healthAlarms int
	var monitorDetects float64
	for i := 0; i < b.N; i++ {
		hb, err := sp80090b.NewHealthBlock(1, sp80090b.DefaultAlpha, sp80090b.DefaultWindow)
		if err != nil {
			b.Fatal(err)
		}
		src := trng.NewBiased(0.52, 3)
		m, err := core.NewMonitor(cfg, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 65536; j++ {
			bit, _ := src.ReadBit()
			hb.Feed(bit)
			if _, err := m.Feed(bit); err != nil {
				b.Fatal(err)
			}
		}
		r, a := hb.Alarms()
		healthAlarms = r + a
		monitorDetects = 0
		if len(m.History()) > 0 && !m.History()[0].Report.Pass() {
			monitorDetects = 1
		}
	}
	b.ReportMetric(float64(healthAlarms), "sp80090b-alarms")
	b.ReportMetric(monitorDetects, "monitor-detected")
}

// BenchmarkMSP430 measures the CPU simulator's instruction throughput.
func BenchmarkMSP430(b *testing.B) {
	prog, err := msp430.Assemble(`
 clr r4
 mov #1000, r5
loop:
 add r5, r4
 dec r5
 jnz loop
 bis #0x10, sr
`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cpu := msp430.New()
		cpu.LoadImage(prog.Origin, prog.Words)
		cpu.SetReg(msp430.PC, prog.Origin)
		if err := cpu.Run(10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecondLevel measures the suite-level interpretation (pass
// proportion + P-value uniformity) over a 50-sequence batch.
func BenchmarkSecondLevel(b *testing.B) {
	var pvalues []float64
	var passes []bool
	for i := 0; i < 50; i++ {
		s := trng.Read(trng.NewIdeal(int64(300+i)), 4096)
		r, err := nist.Frequency(s)
		if err != nil {
			b.Fatal(err)
		}
		pvalues = append(pvalues, r.MinP())
		passes = append(passes, r.Pass(0.01))
	}
	b.ResetTimer()
	var ok float64
	for i := 0; i < b.N; i++ {
		pr, err := nist.Proportion(passes, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		ur, err := nist.Uniformity(pvalues)
		if err != nil {
			b.Fatal(err)
		}
		ok = 0
		if pr.OK && ur.OK {
			ok = 1
		}
	}
	b.ReportMetric(ok, "suite-accepted")
}

// BenchmarkTwoCoreLatency compares the evaluation routine's latency on the
// two simulated open cores (the paper's future-work experiment): the
// 16-bit openMSP430-style core vs a 32-bit RV32IM core, on identical
// hardware counters.
func BenchmarkTwoCoreLatency(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := hwblock.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := blk.Run(bitstream.NewReader(trng.Read(trng.NewIdeal(5), cfg.N))); err != nil {
		b.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	var mspCycles, rvCycles int64
	for i := 0; i < b.N; i++ {
		msp, _, err := firmware.Run(blk, cv)
		if err != nil {
			b.Fatal(err)
		}
		rv, _, err := firmware.RunRV32(blk, cv)
		if err != nil {
			b.Fatal(err)
		}
		mspCycles, rvCycles = msp.Cycles, rv.Cycles
	}
	b.ReportMetric(float64(mspCycles), "msp430-cycles")
	b.ReportMetric(float64(rvCycles), "rv32-cycles")
}

// BenchmarkRV32FullSet measures the complete nine-test evaluation latency
// on the RV32 core (the high design) — the all-software half of the
// paper's split at its largest.
func BenchmarkRV32FullSet(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.High)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := hwblock.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := blk.Run(bitstream.NewReader(trng.Read(trng.NewIdeal(6), cfg.N))); err != nil {
		b.Fatal(err)
	}
	cv, err := sweval.NewCriticalValues(cfg, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	var cycles, instrs int64
	for i := 0; i < b.N; i++ {
		res, _, err := firmware.RunRV32(blk, cv)
		if err != nil {
			b.Fatal(err)
		}
		cycles, instrs = res.Cycles, res.Instructions
	}
	b.ReportMetric(float64(cycles), "rv32-cycles")
	b.ReportMetric(float64(instrs), "rv32-instructions")
}
