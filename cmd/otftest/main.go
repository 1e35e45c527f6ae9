// Command otftest runs the on-the-fly testing platform over a bit stream:
// either a file of ASCII '0'/'1' characters (or raw bytes with -raw), or a
// simulated TRNG.
//
// Usage:
//
//	otftest -n 65536 -variant high -alpha 0.01 -file bits.txt
//	otftest -n 128 -variant light -source biased -p 0.6 -sequences 10
//	cat bits.txt | otftest -n 65536 -variant medium -file -
//
// Supervision (fault injection and graceful degradation):
//
//	otftest -n 128 -variant light -source ideal -sequences 8 -fault-rate 0.01
//	otftest -n 128 -variant light -source ideal -sequences 8 \
//	    -stall-after 300 -standby ideal -bit-deadline 50ms
//	otftest -n 128 -variant light -source ideal -sequences 8 \
//	    -corrupt-reads 0.05 -verify-readout
//
// Observability (live metrics, event trace and profiling for soak runs):
//
//	otftest -n 65536 -variant high -source ideal -sequences 1000 \
//	    -metrics-addr :9600 -trace-out trace.jsonl
//	curl http://localhost:9600/metrics        # Prometheus text format
//	curl http://localhost:9600/metrics.json   # JSON exposition
//	curl http://localhost:9600/trace          # ring-buffered event trace
//	go tool pprof http://localhost:9600/debug/pprof/profile?seconds=10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/trng"
)

// options carries every flag of the CLI; main parses, run executes. The
// split keeps the whole pipeline — including the observability wiring —
// testable in-process.
type options struct {
	n             int
	variant       string
	alpha         float64
	file          string
	raw           bool
	source        string
	p             float64
	seed          int64
	sequences     int
	faultRate     float64
	faultBurst    int
	stallAfter    int
	standby       string
	bitDeadline   time.Duration
	corruptReads  float64
	verifyReadout bool
	cycleAccurate bool
	workers       int
	metricsAddr   string
	traceOut      string

	stdout io.Writer
	stderr io.Writer
	// boundAddr receives the metrics listener's bound address (useful
	// with ":0"); nil discards it.
	boundAddr *string
}

func main() {
	o := options{stdout: os.Stdout, stderr: os.Stderr}
	flag.IntVar(&o.n, "n", 65536, "sequence length (128, 65536 or 1048576)")
	flag.StringVar(&o.variant, "variant", "medium", "design variant: light, medium or high")
	flag.Float64Var(&o.alpha, "alpha", 0.01, "level of significance (NIST: 0.001..0.01)")
	flag.StringVar(&o.file, "file", "", "bit-stream file ('-' for stdin); ASCII 0/1 unless -raw")
	flag.BoolVar(&o.raw, "raw", false, "treat the file as raw bytes, MSB first")
	flag.StringVar(&o.source, "source", "", "simulated source: "+trng.SimulatedNames())
	flag.Float64Var(&o.p, "p", 0.6, "simulated-source parameter: P(bit=1) for biased, stickiness for markov, end-of-life P(bit=1) for drift")
	flag.Int64Var(&o.seed, "seed", 1, "seed for simulated sources")
	flag.IntVar(&o.sequences, "sequences", 1, "number of sequences to evaluate")
	flag.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient read faults at this per-bit rate (enables supervision)")
	flag.IntVar(&o.faultBurst, "fault-burst", 1, "length of each injected fault burst, in reads")
	flag.IntVar(&o.stallAfter, "stall-after", 0, "stall the source after this many bits (enables supervision and the watchdog)")
	flag.StringVar(&o.standby, "standby", "", "standby simulated source for failover (same kinds as -source)")
	flag.DurationVar(&o.bitDeadline, "bit-deadline", 50*time.Millisecond, "watchdog deadline per bit when supervision is active")
	flag.Float64Var(&o.corruptReads, "corrupt-reads", 0, "corrupt register-file bus reads at this per-read rate (enables supervision)")
	flag.BoolVar(&o.verifyReadout, "verify-readout", false, "double-evaluate each sequence and quarantine on readout mismatch")
	flag.BoolVar(&o.cycleAccurate, "cycle-accurate", false, "ingest via the cycle-accurate structural simulation (golden reference) instead of the word-level fast path, which is bit-exact with it")
	flag.IntVar(&o.workers, "workers", 1, "shard sequences across this many goroutines, one independent seeded source each (simulated sources only; 0 = all CPUs)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address (e.g. :9600)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the event trace as JSON lines to this file ('-' for stdout) when the run ends")
	flag.Parse()
	os.Exit(run(o))
}

// run executes one monitoring run and returns the process exit code:
// 0 all sequences passed, 1 a statistical test failed, 2 operational
// failure (bad flags, unrecoverable source fault, early stream end).
func run(o options) int {
	fatal := func(err error) int {
		fmt.Fprintln(o.stderr, "otftest:", err)
		return 2
	}

	path := hwblock.FastPath
	if o.cycleAccurate {
		path = hwblock.CycleAccurate
	}

	v, err := hwblock.ParseVariant(o.variant)
	if err != nil {
		return fatal(err)
	}
	cfg, err := hwblock.NewConfig(o.n, v)
	if err != nil {
		return fatal(err)
	}
	mon, err := core.NewMonitor(cfg, o.alpha)
	if err != nil {
		return fatal(err)
	}
	// The per-sequence report prints the pass's software cost.
	mon.Metered = true
	if err := mon.Block().SetPath(path); err != nil {
		return fatal(err)
	}

	// The observability registry exists only when asked for: the default
	// path runs with a nil registry, which the instrumentation treats as
	// a no-op (and the differential suite proves bit-identical).
	var reg *obs.Registry
	if o.metricsAddr != "" || o.traceOut != "" {
		reg = obs.NewRegistry()
		mon.SetObs(reg)
	}
	if o.metricsAddr != "" {
		_, addr, err := obs.Serve(o.metricsAddr, reg)
		if err != nil {
			return fatal(err)
		}
		if o.boundAddr != nil {
			*o.boundAddr = addr
		}
		fmt.Fprintf(o.stdout, "metrics: serving http://%s/metrics (json: /metrics.json, trace: /trace, pprof: /debug/pprof/)\n", addr)
	}

	var src trng.Source
	switch {
	case o.file != "":
		src, err = fileSource(o.file, o.raw)
		if err != nil {
			return fatal(err)
		}
	case o.source != "":
		src, err = trng.NewSimulated(o.source, o.p, o.seed)
		if err != nil {
			return fatal(err)
		}
	default:
		return fatal(fmt.Errorf("need -file or -source"))
	}

	supervised := o.faultRate > 0 || o.stallAfter > 0 || o.standby != "" ||
		o.corruptReads > 0 || o.verifyReadout

	if o.workers != 1 {
		if supervised {
			return fatal(fmt.Errorf("-workers cannot be combined with supervision flags"))
		}
		if o.source == "" {
			return fatal(fmt.Errorf("-workers needs a simulated -source (each sequence gets its own seeded source)"))
		}
	}

	reg.Gauge("otftest_run_info",
		"constant 1, labelled with the run configuration",
		"design", cfg.Name, "path", path.String(),
		"workers", fmt.Sprintf("%d", o.workers)).Set(1)
	seqSeconds := reg.Histogram("otftest_sequence_seconds",
		"wall-clock time per evaluated sequence (measured at the CLI boundary; "+
			"the monitor itself is clock-free)", obs.ExpBuckets(100e-6, 4, 12))

	var reports []core.SequenceReport
	var supRep *core.SupervisorReport
	var runErr error
	var ingestBits int64
	start := time.Now()
	switch {
	case o.workers != 1:
		runner := &core.SequenceRunner{Cfg: cfg, Alpha: o.alpha, Workers: o.workers, Path: path, Obs: reg}
		reports, runErr = runner.Run(o.sequences, func(trial int) trng.Source {
			s, err := trng.NewSimulated(o.source, o.p, o.seed+int64(trial))
			if err != nil {
				panic(err) // the kind was validated above
			}
			return s
		})
		if runErr != nil {
			return fatal(runErr)
		}
		ingestBits = int64(o.sequences) * int64(cfg.N)
	case supervised:
		if o.faultRate > 0 {
			flaky := faultinject.NewFlaky(src, o.faultRate, o.faultBurst, o.seed+1)
			flaky.SetObs(reg)
			src = flaky
		}
		if o.stallAfter > 0 {
			stall := faultinject.NewStall(src, o.stallAfter)
			stall.SetObs(reg)
			src = stall
		}
		if o.corruptReads > 0 {
			faultinject.CorruptRegFile(mon.Block().RegFile(), o.corruptReads, o.seed+2).SetObs(reg)
		}
		var sby trng.Source
		if o.standby != "" {
			if sby, err = trng.NewSimulated(o.standby, o.p, o.seed+3); err != nil {
				return fatal(err)
			}
		}
		sup := core.NewSupervisor(mon, src, sby, core.SupervisorConfig{
			BitDeadline:   o.bitDeadline,
			VerifyReadout: o.verifyReadout,
		})
		sup.SetObs(reg)
		supRep, runErr = sup.Run(o.sequences)
		reports = supRep.Reports
		ingestBits = mon.BitsSeen()
	default:
		// Sequence by sequence, so the per-sequence latency histogram can
		// observe each completion. Monitor state persists across Watch
		// calls — this is bit-identical to one Watch(src, sequences).
		for len(reports) < o.sequences {
			seqStart := time.Now()
			reps, err := mon.Watch(src, 1)
			if reg != nil {
				seqSeconds.Observe(time.Since(seqStart).Seconds())
			}
			reports = append(reports, reps...)
			if err != nil {
				runErr = err
				break
			}
		}
		if runErr != nil && len(reports) == 0 {
			return fatal(runErr)
		}
		ingestBits = mon.BitsSeen()
	}
	elapsed := time.Since(start)

	exit := 0
	for i, r := range reports {
		status := "PASS"
		if !r.Report.Pass() {
			status = fmt.Sprintf("FAIL (tests %v)", r.Report.Failed())
			exit = 1
		}
		seqNo := r.Index
		if o.workers != 1 {
			seqNo = i // each trial has its own monitor, so Index is always 0
		}
		fmt.Fprintf(o.stdout, "sequence %d [bits %d..%d): %s\n",
			seqNo, r.StartBit, r.StartBit+int64(cfg.N), status)
		for _, v := range r.Report.Verdicts {
			mark := "ok"
			if !v.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(o.stdout, "  test %-2d %-4s statistic=%d threshold=%d %s\n",
				v.TestID, mark, v.Statistic, v.Threshold, v.Note)
		}
		fmt.Fprintf(o.stdout, "  software cost: %s\n", r.Report.Cost.String())
	}
	if supRep != nil {
		fmt.Fprintf(o.stdout, "supervision: condition=%s quarantined=%d retries=%d active=%s\n",
			supRep.Condition, supRep.Quarantined, supRep.Retries, supRep.ActiveSource)
		for _, e := range supRep.Events {
			fmt.Fprintf(o.stdout, "  %s\n", e)
		}
		if supRep.Condition == core.SourceFault {
			exit = 2
		}
	}
	if secs := elapsed.Seconds(); ingestBits > 0 && secs > 0 {
		fmt.Fprintf(o.stdout, "ingest: %d bits in %v via %s path, %d worker(s) (%.3g bits/s)\n",
			ingestBits, elapsed.Round(time.Millisecond), path, o.workers,
			float64(ingestBits)/secs)
		reg.Gauge("otftest_ingest_bits_per_second",
			"measured end-to-end ingest throughput of the completed run").
			Set(float64(ingestBits) / secs)
		reg.Gauge("otftest_run_seconds", "wall-clock duration of the completed run").Set(secs)
	}
	if reg != nil && o.metricsAddr != "" {
		fmt.Fprintf(o.stdout, "metrics: %d families exposed\n", reg.Families())
	}
	if o.traceOut != "" {
		if err := writeTrace(reg, o.traceOut); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(o.stdout, "trace: %d events retained (%d emitted) -> %s\n",
			reg.Trace().Len(), reg.Trace().Total(), o.traceOut)
	}
	if runErr != nil {
		fmt.Fprintf(o.stderr, "otftest: stream ended early: %v\n", runErr)
		exit = 2
	}
	return exit
}

// writeTrace dumps the registry's event trace as JSON lines.
func writeTrace(reg *obs.Registry, path string) error {
	if path == "-" {
		return reg.Trace().WriteJSONLines(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Trace().WriteJSONLines(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSource(path string, raw bool) (trng.Source, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var seq *bitstream.Sequence
	if raw {
		seq = bitstream.FromBytes(data)
	} else {
		seq, err = bitstream.ParseASCII(string(data))
		if err != nil {
			return nil, err
		}
	}
	return &sequenceSource{r: bitstream.NewReader(seq)}, nil
}

// sequenceSource adapts a finite sequence to the Source interface.
type sequenceSource struct {
	r *bitstream.Reader
}

func (s *sequenceSource) Name() string { return "file" }

func (s *sequenceSource) ReadBit() (byte, error) { return s.r.ReadBit() }
