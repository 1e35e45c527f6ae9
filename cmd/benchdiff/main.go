// Command benchdiff compares two archived benchmark runs and reports the
// per-benchmark deltas. The inputs are the BENCH_*.json files `make bench`
// produces: test2json framing (one JSON event per line) around the standard
// `go test -bench` output. benchdiff reassembles each package's output
// stream — a single benchmark result line is routinely split across several
// output events — and extracts every `Benchmark...` result line.
//
// For each benchmark present in both files it prints the old and new value
// and the percentage delta for ns/op, plus B/op and allocs/op deltas when
// both runs recorded them. Benchmarks are matched without the -N
// GOMAXPROCS suffix `go test` appends on multi-CPU hosts, so runs from
// hosts with different CPU counts still compare. Benchmarks present in
// only one file are listed; two files that share no benchmark at all fail
// the run, since a gate that compares nothing must not pass.
//
// With -fail-over P, benchdiff exits non-zero when any benchmark's ns/op
// regressed by more than P percent — the repository's benchmark-trajectory
// gate. P should be generous (the CI machines are noisy, and a 1-CPU
// container doubles the variance); the gate exists to catch order-of-
// magnitude regressions in the ingest fast paths, not 5% drift.
//
// The zero-alloc gate is separate and always on: a benchmark whose
// archived allocs/op is 0 that now reports any allocations fails the run
// regardless of -fail-over (even -fail-over 0, which only disables the
// ns/op gate). Allocation counts are deterministic — unlike ns/op there
// is no noise to forgive — and 0 allocs/op on the ingest fast paths is a
// pinned property the perflint analyzers prove statically; this is the
// dynamic half of that contract.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json's framing benchdiff needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// result is one parsed benchmark line: the iteration count and every
// reported metric keyed by its unit ("ns/op", "B/op", "allocs/op", and any
// custom -benchmem or ReportMetric units).
type result struct {
	iters   int64
	metrics map[string]float64
}

// parseBench reads a test2json stream and returns every benchmark result,
// keyed "package:BenchmarkName".
func parseBench(r io.Reader) (map[string]result, error) {
	// Reassemble each package's textual output in event order; benchmark
	// result lines are split across output events (the name flushes before
	// the timing), so per-line parsing of events would miss most of them.
	byPkg := make(map[string]*strings.Builder)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("benchdiff: not a test2json stream: %w", err)
		}
		if ev.Action != "output" || ev.Output == "" {
			continue
		}
		b := byPkg[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			byPkg[ev.Package] = b
			order = append(order, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := make(map[string]result)
	for _, pkg := range order {
		for _, line := range strings.Split(byPkg[pkg].String(), "\n") {
			name, res, ok := parseLine(line)
			if !ok {
				continue
			}
			out[pkg+":"+name] = res
		}
	}
	return stripProcs(out), nil
}

// stripProcs removes the -N GOMAXPROCS suffix from every key when all keys
// carry the same one — the shape of a run on an N-CPU host. A 1-CPU run
// has no suffix, and a benchmark whose own name ends in -digits (a
// "lanes-64" sub-benchmark) then keeps it, because the other names do not
// share it.
func stripProcs(in map[string]result) map[string]result {
	suffix := ""
	for k := range in {
		i := strings.LastIndexByte(k, '-')
		if i < 0 || i == len(k)-1 || strings.Trim(k[i+1:], "0123456789") != "" {
			return in
		}
		if suffix == "" {
			suffix = k[i:]
		} else if k[i:] != suffix {
			return in
		}
	}
	out := make(map[string]result, len(in))
	for k, r := range in {
		out[strings.TrimSuffix(k, suffix)] = r
	}
	return out
}

// parseLine parses one `BenchmarkX  N  V unit  V unit ...` result line.
// Returns ok=false for anything else (=== RUN markers, pass/fail lines,
// the bare benchmark-name flush line).
func parseLine(line string) (string, result, bool) {
	fields := strings.Split(line, "\t")
	if len(fields) < 3 {
		return "", result{}, false
	}
	name := strings.TrimSpace(fields[0])
	if !strings.HasPrefix(name, "Benchmark") || strings.ContainsAny(name, " :") {
		return "", result{}, false
	}
	iters, err := strconv.ParseInt(strings.TrimSpace(fields[1]), 10, 64)
	if err != nil {
		return "", result{}, false
	}
	res := result{iters: iters, metrics: make(map[string]float64)}
	for _, f := range fields[2:] {
		parts := strings.Fields(f)
		if len(parts) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			continue
		}
		res.metrics[parts[1]] = v
	}
	if len(res.metrics) == 0 {
		return "", result{}, false
	}
	return name, res, true
}

// row is one comparison line of the report.
type row struct {
	name     string
	old, new result
}

func run(oldPath, newPath string, failOver float64, w io.Writer) (int, error) {
	oldF, err := os.Open(oldPath)
	if err != nil {
		return 1, err
	}
	defer oldF.Close()
	newF, err := os.Open(newPath)
	if err != nil {
		return 1, err
	}
	defer newF.Close()
	oldR, err := parseBench(oldF)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", oldPath, err)
	}
	newR, err := parseBench(newF)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", newPath, err)
	}
	if len(oldR) == 0 {
		return 1, fmt.Errorf("%s: no benchmark results found", oldPath)
	}
	if len(newR) == 0 {
		return 1, fmt.Errorf("%s: no benchmark results found", newPath)
	}

	var rows []row
	var onlyOld, onlyNew []string
	for k, o := range oldR {
		if n, ok := newR[k]; ok {
			rows = append(rows, row{name: k, old: o, new: n})
		} else {
			onlyOld = append(onlyOld, k)
		}
	}
	for k := range newR {
		if _, ok := oldR[k]; !ok {
			onlyNew = append(onlyNew, k)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)

	tw := bufio.NewWriter(w)
	defer tw.Flush()
	fmt.Fprintf(tw, "%-64s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	exit := 0
	zeroAllocBroken := false
	for _, r := range rows {
		oldNs, okO := r.old.metrics["ns/op"]
		newNs, okN := r.new.metrics["ns/op"]
		if !okO || !okN {
			continue
		}
		d := 0.0
		if oldNs > 0 {
			d = (newNs - oldNs) / oldNs * 100
		}
		mark := ""
		if failOver > 0 && d > failOver {
			mark = "  REGRESSED"
			exit = 1
		}
		fmt.Fprintf(tw, "%-64s %14.2f %14.2f %+8.1f%%%s\n", r.name, oldNs, newNs, d, mark)
		for _, unit := range []string{"B/op", "allocs/op"} {
			o, okO := r.old.metrics[unit]
			n, okN := r.new.metrics[unit]
			if !okO || !okN || (o == n) {
				continue
			}
			mark := ""
			if unit == "allocs/op" && o == 0 && n > 0 {
				// A zero-alloc benchmark started allocating: hard failure,
				// independent of the ns/op threshold.
				mark = "  REGRESSED (was 0 allocs/op)"
				zeroAllocBroken = true
				exit = 1
			}
			fmt.Fprintf(tw, "%-64s %14.0f %14.0f  (%s)%s\n", "", o, n, unit, mark)
		}
	}
	for _, k := range onlyOld {
		fmt.Fprintf(tw, "%-64s only in %s\n", k, oldPath)
	}
	for _, k := range onlyNew {
		fmt.Fprintf(tw, "%-64s only in %s\n", k, newPath)
	}
	if len(rows) == 0 {
		fmt.Fprintf(tw, "\nbenchdiff: the two runs share no benchmark; nothing was compared\n")
		return 1, nil
	}
	if zeroAllocBroken {
		fmt.Fprintf(tw, "\nbenchdiff: zero-alloc benchmark now allocates (hard failure, ignores -fail-over)\n")
	}
	if exit != 0 && !zeroAllocBroken {
		fmt.Fprintf(tw, "\nbenchdiff: ns/op regression over %.0f%% threshold\n", failOver)
	}
	return exit, nil
}

func main() {
	failOver := flag.Float64("fail-over", 0, "exit non-zero when any ns/op regresses by more than this percentage (0 disables the ns/op gate; the zero-alloc gate is always on)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff [-fail-over pct] OLD.json NEW.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(flag.Arg(0), flag.Arg(1), *failOver, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	os.Exit(code)
}
