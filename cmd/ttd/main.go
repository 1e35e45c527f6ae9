// Command ttd measures the online anomaly detector's time-to-detect
// across the TRNG defect zoo: for each defect family and severity it runs
// repeated trials in which a healthy source degrades at a known onset bit,
// feeds the stream through an internal/online tracker, and reports how
// many bits past the onset the tracker's confirmation latch fired.
//
// Usage:
//
//	ttd -n 128 -variant medium -trials 25 -onset 4096
//	ttd -family bias -trials 50 -window 1024 -format csv > bias.csv
//	ttd -family ideal -max-bits 1048576       # false-alarm baseline
//
// Every trial is deterministic in (-seed, trial index), so a published
// table is reproducible bit for bit. The ideal family never degrades: any
// detection it reports is a false alarm, and its "detected" column is the
// empirical false-alarm rate at the configured -max-bits horizon.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/hwblock"
	"repro/internal/online"
	"repro/internal/trng"
)

// options carries every flag of the CLI; main parses, run executes — the
// split keeps the whole sweep testable in-process.
type options struct {
	n         int
	variant   string
	family    string
	window    int
	halfLife  int
	threshold float64
	confirm   int
	trials    int
	onset     int
	maxBits   int
	seed      int64
	format    string

	stdout io.Writer
	stderr io.Writer
}

func main() {
	o := options{stdout: os.Stdout, stderr: os.Stderr}
	flag.IntVar(&o.n, "n", 128, "design sequence length (128, 65536 or 1048576)")
	flag.StringVar(&o.variant, "variant", "medium", "design variant: light, medium or high")
	flag.StringVar(&o.family, "family", "all", "defect family: all, ideal, stuck, bias, markov, lockin, drift")
	flag.IntVar(&o.window, "window", 0, "tracker window in bits, a multiple of 64 (0 = the design's sequence length)")
	flag.IntVar(&o.halfLife, "half-life", 0, "score half-life in bits (0 = tracker default, 4x window)")
	flag.Float64Var(&o.threshold, "threshold", 0, "anomaly-score alarm threshold (0 = tracker default)")
	flag.IntVar(&o.confirm, "confirm", 0, "consecutive over-threshold commits before latching (0 = tracker default)")
	flag.IntVar(&o.trials, "trials", 25, "independent trials per severity point")
	flag.IntVar(&o.onset, "onset", 4096, "bit index at which the defect switches in")
	flag.IntVar(&o.maxBits, "max-bits", 1<<18, "per-trial bit budget; an undetected trial is censored at this horizon")
	flag.Int64Var(&o.seed, "seed", 1, "base seed; trial t of point i uses seed+1000*i+t")
	flag.StringVar(&o.format, "format", "table", "output format: table or csv")
	flag.Parse()
	os.Exit(run(o))
}

// sweepPoint is one (family, severity) cell of the sweep: makeSource
// builds the trial's full stream — healthy before the onset, defective
// after — from a trial seed. premixed points (drift, ideal) embed their
// own timeline and use onset 0 for the latency accounting.
type sweepPoint struct {
	family     string
	severity   string
	premixed   bool
	makeSource func(seed int64, onset int) trng.Source
}

// sweep enumerates the defect zoo. Severities are ordered hardest
// (subtlest defect) to easiest within each family, so each family's rows
// read as one time-to-detect curve.
func sweep() []sweepPoint {
	var pts []sweepPoint
	add := func(family, severity string, premixed bool, mk func(seed int64, onset int) trng.Source) {
		pts = append(pts, sweepPoint{family, severity, premixed, mk})
	}
	switchAt := func(defect func(seed int64) trng.Source) func(int64, int) trng.Source {
		return func(seed int64, onset int) trng.Source {
			return trng.NewSwitchAt(trng.NewIdeal(seed), defect(seed+500_000), onset)
		}
	}
	add("ideal", "-", true, func(seed int64, _ int) trng.Source {
		return trng.NewIdeal(seed)
	})
	for _, p := range []float64{0.52, 0.55, 0.58, 0.62, 0.70, 0.80} {
		p := p
		add("bias", fmt.Sprintf("p=%.2f", p), false, switchAt(func(seed int64) trng.Source {
			return trng.NewBiased(p, seed)
		}))
	}
	for _, stick := range []float64{0.55, 0.60, 0.65, 0.70, 0.80, 0.90} {
		stick := stick
		add("markov", fmt.Sprintf("stick=%.2f", stick), false, switchAt(func(seed int64) trng.Source {
			return trng.NewMarkov(stick, seed)
		}))
	}
	for _, residual := range []float64{0.15, 0.10, 0.05, 0.02, 0.005} {
		residual := residual
		add("lockin", fmt.Sprintf("jitter=%.3f", residual), false, func(seed int64, onset int) trng.Source {
			healthy := trng.NewRingOscillator(100.37, 0.5, seed)
			locked := trng.NewRingOscillator(100.37, 0.5, seed+500_000)
			locked.Lock(residual)
			return trng.NewSwitchAt(healthy, locked, onset)
		})
	}
	for _, endP := range []float64{0.60, 0.70, 0.80, 0.90} {
		endP := endP
		add("drift", fmt.Sprintf("endP=%.2f", endP), true, func(seed int64, _ int) trng.Source {
			return trng.NewDrift(0.5, endP, 1<<15, seed)
		})
	}
	add("stuck", "level=0", false, switchAt(func(int64) trng.Source {
		return trng.NewStuckAt(0)
	}))
	add("stuck", "level=1", false, switchAt(func(int64) trng.Source {
		return trng.NewStuckAt(1)
	}))
	return pts
}

// result aggregates one sweep point's trials.
type result struct {
	point     sweepPoint
	trials    int
	detected  int
	latencies []int64 // bits past the onset, detected trials only
}

func (r *result) stats() (median, mean, min, max int64) {
	if len(r.latencies) == 0 {
		return -1, -1, -1, -1
	}
	sorted := append([]int64(nil), r.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	median = sorted[n/2]
	if n%2 == 0 {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	return median, sum / int64(n), sorted[0], sorted[n-1]
}

// run executes the sweep and returns the process exit code: 0 on success,
// 2 on a configuration error.
func run(o options) int {
	fatal := func(err error) int {
		fmt.Fprintln(o.stderr, "ttd:", err)
		return 2
	}
	v, err := hwblock.ParseVariant(o.variant)
	if err != nil {
		return fatal(err)
	}
	design, err := hwblock.NewConfig(o.n, v)
	if err != nil {
		return fatal(err)
	}
	ocfg := online.Config{
		Window:       o.window,
		HalfLifeBits: o.halfLife,
		Threshold:    o.threshold,
		Confirm:      o.confirm,
	}
	// Validate the tracker config once, before the sweep spends any time.
	tracker, err := online.New(design, ocfg)
	if err != nil {
		return fatal(err)
	}
	if o.trials < 1 {
		return fatal(fmt.Errorf("-trials %d: need at least 1", o.trials))
	}
	if o.onset < 0 || o.maxBits <= o.onset {
		return fatal(fmt.Errorf("-max-bits %d must exceed -onset %d", o.maxBits, o.onset))
	}
	if o.format != "table" && o.format != "csv" {
		return fatal(fmt.Errorf("unknown format %q (want table or csv)", o.format))
	}

	pts := sweep()
	if o.family != "all" {
		kept := pts[:0]
		for _, p := range pts {
			if p.family == o.family {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			return fatal(fmt.Errorf("unknown family %q (want all, ideal, stuck, bias, markov, lockin or drift)", o.family))
		}
		pts = kept
	}

	results := make([]result, len(pts))
	for i, pt := range pts {
		res := result{point: pt, trials: o.trials}
		for trial := 0; trial < o.trials; trial++ {
			seed := o.seed + 1000*int64(i) + int64(trial)
			onset := o.onset
			if pt.premixed {
				onset = 0
			}
			src := pt.makeSource(seed, onset)
			tracker.Reset()
			if at, ok := runTrial(tracker, src, o.maxBits); ok {
				res.detected++
				res.latencies = append(res.latencies, at-int64(onset))
			}
		}
		results[i] = res
	}

	if o.format == "csv" {
		printCSV(o.stdout, results)
	} else {
		printTable(o.stdout, o, results)
	}
	return 0
}

// runTrial feeds the source through the tracker until the latch fires or
// the bit budget runs out, returning the detection bit index.
func runTrial(tr *online.Tracker, src trng.Source, maxBits int) (int64, bool) {
	for fed := 0; fed < maxBits; fed += 64 {
		var w uint64
		for i := 0; i < 64; i++ {
			b, err := src.ReadBit()
			if err != nil {
				// The zoo sources never hard-fail; a transient is retried by
				// rereading, matching the Supervisor's retry semantics.
				i--
				continue
			}
			w |= uint64(b&1) << uint(i)
		}
		tr.Push(w, 64)
		if tr.Alarmed() {
			return tr.DetectedAt(), true
		}
	}
	return -1, false
}

func printTable(w io.Writer, o options, results []result) {
	fmt.Fprintf(w, "time-to-detect: %d trials/point, onset bit %d, horizon %d bits\n",
		o.trials, o.onset, o.maxBits)
	fmt.Fprintf(w, "%-8s %-14s %9s %12s %12s %12s %12s\n",
		"family", "severity", "detected", "median-ttd", "mean-ttd", "min-ttd", "max-ttd")
	for _, r := range results {
		median, mean, min, max := r.stats()
		det := fmt.Sprintf("%d/%d", r.detected, r.trials)
		fmt.Fprintf(w, "%-8s %-14s %9s %12s %12s %12s %12s\n",
			r.point.family, r.point.severity, det,
			cell(median), cell(mean), cell(min), cell(max))
	}
	fmt.Fprintln(w, "ttd in bits past the defect onset; '-' = no trial detected (censored at the horizon)")
}

func cell(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

func printCSV(w io.Writer, results []result) {
	fmt.Fprintln(w, "family,severity,trials,detected,median_ttd_bits,mean_ttd_bits,min_ttd_bits,max_ttd_bits")
	for _, r := range results {
		median, mean, min, max := r.stats()
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%d\n",
			r.point.family, r.point.severity, r.trials, r.detected, median, mean, min, max)
	}
}
