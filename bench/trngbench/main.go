// Command trngbench is the repository's end-to-end benchmark. It drives
// internal/fleet from outside — one producer goroutine, one shard, the
// Block policy and an obs registry, all on one P — over five synthetic
// traffic shapes, and reports the cost of a 64-bit word from first push
// to drained verdict, the fleet's live heap and the set-up time. Times are
// scaled to a calm host by a yardstick timed next to them (refkernel.go).
// Every verdict is checked against a reference computation.
//
// With -trace 1 it instead times the benchmark's own calls into each
// layer's public API — the fleet's Push/Register/Detach, and single-threaded
// replays of the workload's words through hwslice, core, sweval and
// online — and prints the per-layer metrics (report latency among them)
// and a ledger that splits the end-to-end figure by layer.
//
// Usage:
//
//	trngbench                                   # every workload, round-robin
//	trngbench -workload sliced-light -seed 2 -seconds 10
//	trngbench -trace 1 -trace-out spans.jsonl   # per-layer metrics + ledger
//	trngbench -repeat-check                     # run twice, compare the figures
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit codes: 0 clean; 1
// -repeat-check saw a figure move by more than its bound; 2 a report
// differed from its reference, a push failed, or a flag was bad.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	// repeats (0: one per repeatSeconds) and warmup are fixed for the
	// command; the smoke tests shrink them.
	repeats     int
	warmup      int
	out         string
	traceOut    string
	repeatCheck bool

	stdout, stderr io.Writer
}

func main() {
	o := options{warmup: 1, stdout: os.Stdout, stderr: os.Stderr}
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all, round-robin)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed, the only source of input variation")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per workload, split evenly over its timed repeats (0 = 21, or 8 with -trace 1)")
	flag.IntVar(&o.trace, "trace", 0, "1 = time each layer's calls and print per-layer metrics and the ledger")
	flag.StringVar(&o.out, "out", "", "also write the results as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write up to 100k spans per layer as JSONL to this file")
	flag.BoolVar(&o.repeatCheck, "repeat-check", false, "run the end-to-end suite twice and fail if a figure moves by more than its bound")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "trngbench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	// One P runs the producer and the shard goroutines in turn, so a
	// figure is the whole word path's cost. With a P per vCPU, every
	// hand-off between them waits on a cross-vCPU wake-up whose latency is
	// the host's, not the code's: on a shared 2-vCPU host that quadrupled
	// sliced-high-burst's run-to-run spread (bench/README.md, "Noise").
	runtime.GOMAXPROCS(1)
	os.Exit(run(o))
}

func run(o options) int {
	fatal := func(err error) int {
		fmt.Fprintln(o.stderr, "trngbench:", err)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		return fatal(fmt.Errorf("-trace must be 0 or 1, not %d", o.trace))
	}
	if o.seconds < 0 {
		return fatal(fmt.Errorf("-seconds must not be negative"))
	}
	if o.seconds == 0 {
		// Defaults keep the whole suite near 2 minutes and -trace 1 within one.
		o.seconds = 21
		if o.trace == 1 {
			o.seconds = 8
		}
	}
	if o.repeats == 0 {
		o.repeats = max(1, int(o.seconds/repeatSeconds+0.5))
	}
	sel := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		sel = []workload{w}
	}
	names := make([]string, len(sel))
	for i, w := range sel {
		names[i] = w.name
	}
	fmt.Fprintf(o.stdout, "trngbench: seed=%d seconds=%g repeats=%d+%d warm-up GOMAXPROCS=%d workloads=%s\n",
		o.seed, o.seconds, o.repeats, o.warmup, runtime.GOMAXPROCS(0), strings.Join(names, ","))
	states, err := prepare(sel, o.seed)
	if err != nil {
		return fatal(err)
	}
	switch {
	case o.repeatCheck:
		return repeatCheck(o, states)
	case o.trace == 1:
		return runTrace(o, states)
	}
	res, err := runE2E(o, states)
	if err != nil {
		return fatal(err)
	}
	printE2E(o.stdout, res)
	if err := writeOut(o.out, res); err != nil {
		return fatal(err)
	}
	return finish(o.stdout, res, e2eValues(res))
}

// state is one workload ready to run: its traffic owns the pre-generated
// inputs and references.
type state struct {
	w  workload
	tf traffic
}

// prepare generates every selected workload's inputs and references from
// the seed, before any timing starts.
func prepare(sel []workload, seed int64) ([]*state, error) {
	var stream [][][]uint64 // shared by the n=65536 workloads
	var states []*state
	for _, w := range sel {
		st := &state{w: w}
		var err error
		if w.burst == 0 {
			var progs [][]program
			if progs, err = genChurn(seed); err == nil {
				st.tf, err = newChurn(w, progs)
			}
		} else {
			if stream == nil {
				stream, err = genStream(seed, w.n)
			}
			if err == nil {
				st.tf, err = newStreaming(w, stream)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		states = append(states, st)
	}
	return states, nil
}

// repeatResult is one repeat's measurements. setupCalm and segs are
// scaled to a calm host (refkernel.go).
type repeatResult struct {
	words             float64   // pushed in the timed segments
	setupCalm         float64   // seconds
	segs, segWall     []float64 // ns per word of each timed segment, scaled and wall-clock
	segSlow           []float64 // the yardstick's slowdown around each segment
	heap              uint64
	lat               []time.Duration
	before, after     map[string]float64 // fleet counters at the timed start and end
	rtBefore, rtAfter runtimeSample
}

// segMin is the shortest timed segment. A segment pushes whole rounds and
// drains them until segMin has passed: long enough that timer resolution
// and the drain are noise, short enough that a run holds hundreds and the
// yardstick timed on either side sees the host as the segment did.
const segMin = 25 * time.Millisecond

// repeat builds a fresh pool and sets it up, then times segments until box
// has passed since the first timed push, and finally detaches every stream
// and shuts the pool down. Each segment ends when its last word has been
// drained into a verdict, so it times the whole word path. withObs
// attaches a registry; tr, when non-nil, times the fleet calls.
func repeat(st *state, withObs bool, tr *tracer, box time.Duration) (repeatResult, error) {
	var r repeatResult
	var reg *obs.Registry
	if withObs {
		reg = obs.NewRegistry()
	}
	cfg, err := st.w.config(reg)
	if err != nil {
		return r, err
	}
	span := tr.openRepeat()
	defer tr.closeRepeat(span)

	// The heap before the pool exists holds the inputs and references;
	// heap_live_mib is what the fleet adds on top of it.
	base := heapLive()
	k0 := refKernel()
	tr.rescale(k0)
	t0 := time.Now()
	pool, err := fleet.New(cfg)
	if err != nil {
		return r, err
	}
	if err := st.tf.setup(pool, tr); err != nil {
		pool.Shutdown()
		return r, fmt.Errorf("%s: setup: %w", st.w.name, err)
	}
	setup := time.Since(t0)
	r.heap = heapLive()
	if r.before, err = counters(reg); err != nil {
		pool.Shutdown()
		return r, err
	}
	r.rtBefore = readRuntime()

	k1 := refKernel()
	tr.rescale(k1)
	r.setupCalm = setup.Seconds() * calmScale(k0, k1, st.w.sens)
	start := time.Now()
	for len(r.segs) == 0 || time.Since(start) < box {
		w0 := st.tf.timedWords()
		t1 := time.Now()
		for {
			err := st.tf.round(tr)
			if err == nil {
				err = drain(pool)
			}
			if err != nil {
				pool.Shutdown()
				return r, fmt.Errorf("%s: %w", st.w.name, err)
			}
			if time.Since(t1) >= segMin {
				break
			}
		}
		d := time.Since(t1)
		words := st.tf.timedWords() - w0
		k0, k1 = k1, refKernel()
		tr.rescale(k1)
		wall := float64(d) / words
		r.segs = append(r.segs, wall*calmScale(k0, k1, st.w.sens))
		r.segWall = append(r.segWall, wall)
		r.segSlow = append(r.segSlow, 1/calmScale(k0, k1, 1))
		r.words += words
	}
	if err := st.tf.finish(tr); err != nil {
		return r, fmt.Errorf("%s: %w", st.w.name, err)
	}

	if r.after, err = counters(reg); err != nil {
		return r, err
	}
	if h := heapLive(); h > r.heap {
		r.heap = h
	}
	r.heap -= min(base, r.heap)
	// The runtime's CPU classes are snapshots taken at each collection, so
	// both samples follow a forced one.
	r.rtAfter = readRuntime()
	runtime.KeepAlive(pool)
	r.lat = append(r.lat, st.tf.latencies()...)
	return r, nil
}

// e2eResult collects one workload's timed repeats.
type e2eResult struct {
	workload string
	// values holds each metric's samples: one per timed segment for
	// ns_per_word, one per timed repeat for the others.
	values            map[string][]float64
	wall, slowdown    []float64 // per segment: wall-clock ns per word, the yardstick's slowdown
	attempted, failed int
}

func (r *e2eResult) add(rr repeatResult) {
	r.values["ns_per_word"] = append(r.values["ns_per_word"], rr.segs...)
	r.values["heap_live_mib"] = append(r.values["heap_live_mib"], float64(rr.heap)/(1<<20))
	r.values["setup_s"] = append(r.values["setup_s"], rr.setupCalm)
	r.wall = append(r.wall, rr.segWall...)
	r.slowdown = append(r.slowdown, rr.segSlow...)
}

// repeatSeconds is the default length of one timed repeat. Each repeat
// sets a fresh pool up, so a 20 s run yields 13 set-up samples, and each
// holds about ten segments of the slowest workload.
const repeatSeconds = 1.5

// runE2E runs every workload's repeats round-robin — repeat i of every
// workload before repeat i+1 of any — so machine drift hits all workloads
// alike, and checks every repeat's reports.
func runE2E(o options, states []*state) ([]*e2eResult, error) {
	box := time.Duration(o.seconds / float64(o.repeats) * float64(time.Second))
	res := make([]*e2eResult, len(states))
	for i, st := range states {
		res[i] = &e2eResult{workload: st.w.name, values: make(map[string][]float64)}
	}
	for rep := 0; rep < o.warmup+o.repeats; rep++ {
		for i, st := range states {
			rr, err := repeat(st, true, nil, box)
			if err != nil {
				return nil, err
			}
			a, f := st.tf.check(rep, o.stderr)
			res[i].attempted += a
			res[i].failed += f
			if rep >= o.warmup {
				res[i].add(rr)
			}
		}
	}
	return res, nil
}

func printE2E(w io.Writer, res []*e2eResult) {
	fmt.Fprintf(w, "%-20s %-22s %14s %12s %5s  %s\n", "workload", "metric", "median", "IQR", "n", "unit")
	for _, r := range res {
		for _, m := range endToEnd {
			s := spreadOf(r.values[m.name])
			fmt.Fprintf(w, "%-20s %-22s %14.6g %12.4g %5d  %s\n", r.workload, m.name, s.Median, s.IQR, s.N, m.unit)
		}
		fmt.Fprintf(w, "%-20s %-22s %14.6g %12s %5d  %s\n", r.workload, "failed_ratio", failedRatio(r.attempted, r.failed), "", r.attempted, "ratio")
		fmt.Fprintf(w, "%-20s %-22s %14.6g %12s %5d  %s\n", r.workload, "(wall ns_per_word)", spreadOf(r.wall).Median, "", len(r.wall), "ns")
		fmt.Fprintf(w, "%-20s %-22s %14.6g %12s %5d  %s\n", r.workload, "(host slowdown)", spreadOf(r.slowdown).Median, "", len(r.slowdown), "ratio")
	}
}

func failedRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// value is one metric as the last output line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eValues is each end-to-end metric's reported figure, the median of
// its samples. With several workloads the names are prefixed with the
// workload.
func e2eValues(res []*e2eResult) map[string]value {
	out := make(map[string]value)
	for _, r := range res {
		for _, m := range endToEnd {
			out[key(len(res), r.workload, m.name)] = value{spreadOf(r.values[m.name]).Median, m.unit}
		}
	}
	return out
}

func key(workloads int, workload, metric string) string {
	if workloads == 1 {
		return metric
	}
	return workload + "." + metric
}

// finish prints the machine-readable last line and returns the exit code.
func finish(w io.Writer, res []*e2eResult, values map[string]value) int {
	attempted, failed := 0, 0
	for _, r := range res {
		attempted += r.attempted
		failed += r.failed
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, values}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trngbench:", err)
		return 2
	}
	fmt.Fprintln(w, string(b))
	if !line.Correct {
		return 2
	}
	return 0
}

// writeOut writes every workload's per-repeat values and spreads.
func writeOut(path string, res []*e2eResult) error {
	if path == "" {
		return nil
	}
	type metricOut struct {
		spread
		Unit   string    `json:"unit"`
		Values []float64 `json:"values"`
	}
	type workloadOut struct {
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}
	out := make(map[string]workloadOut)
	for _, r := range res {
		wo := workloadOut{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut)}
		for _, m := range endToEnd {
			wo.Metrics[m.name] = metricOut{spreadOf(r.values[m.name]), m.unit, r.values[m.name]}
		}
		out[r.workload] = wo
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write -out: %w", err)
	}
	return nil
}

// repeatCheck runs the end-to-end suite twice back to back and compares
// each workload × metric figure against the metric's bound.
func repeatCheck(o options, states []*state) int {
	first, err := runE2E(o, states)
	if err != nil {
		fmt.Fprintln(o.stderr, "trngbench:", err)
		return 2
	}
	second, err := runE2E(o, states)
	if err != nil {
		fmt.Fprintln(o.stderr, "trngbench:", err)
		return 2
	}
	bad := 0
	fmt.Fprintf(o.stdout, "%-20s %-22s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range first {
		for _, m := range endToEnd {
			a := spreadOf(first[i].values[m.name]).Median
			b := spreadOf(second[i].values[m.name]).Median
			d := (b - a) / a
			verdict := "ok"
			if d > m.bound || d < -m.bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(o.stdout, "%-20s %-22s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				first[i].workload, m.name, a, b, 100*d, 100*m.bound, verdict)
		}
	}
	code := finish(o.stdout, append(first, second...), e2eValues(second))
	if code == 0 && bad > 0 {
		fmt.Fprintf(o.stderr, "trngbench: %d figures moved by more than their bound\n", bad)
		return 1
	}
	return code
}
