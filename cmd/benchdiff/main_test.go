package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// ev builds one test2json output event line, escaping Output exactly as
// test2json frames it.
func ev(pkg, out string) string {
	r := strings.NewReplacer("\\", `\\`, "\"", `\"`, "\n", `\n`, "\t", `\t`)
	return `{"Action":"output","Package":"` + pkg + `","Output":"` + r.Replace(out) + `"}`
}

// stream builds a test2json fixture where the benchmark result line is
// split across two output events (name flush, then timing), exactly as
// `go test -json` emits it.
func stream(pkg string, ns float64, bop, allocs int) string {
	return benchStream(pkg, ns, bop, allocs, "BenchmarkIngest")
}

// benchStream is stream with the given benchmark names, one result line
// each, as printed (a GOMAXPROCS suffix, if any, included).
func benchStream(pkg string, ns float64, bop, allocs int, names ...string) string {
	timing := "  123456\t" + strconv.FormatFloat(ns, 'f', -1, 64) + " ns/op\t  44.04 MB/s\t       " +
		strconv.Itoa(bop) + " B/op\t       " + strconv.Itoa(allocs) + " allocs/op\n"
	lines := []string{
		`{"Action":"start","Package":"` + pkg + `"}`,
		ev(pkg, "goos: linux\n"),
	}
	for _, name := range names {
		lines = append(lines,
			ev(pkg, name+"\n"),
			ev(pkg, name+"             \t"),
			ev(pkg, timing))
	}
	lines = append(lines,
		ev(pkg, "PASS\n"),
		`{"Action":"pass","Package":"`+pkg+`"}`)
	return strings.Join(lines, "\n") + "\n"
}

// writeRuns writes the old and new fixtures into a temp dir and returns
// their paths.
func writeRuns(t *testing.T, old, new string) (oldP, newP string) {
	t.Helper()
	dir := t.TempDir()
	oldP = filepath.Join(dir, "old.json")
	newP = filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldP, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newP, []byte(new), 0o644); err != nil {
		t.Fatal(err)
	}
	return oldP, newP
}

// TestParseProcsSuffix pins how result names are keyed: the -N suffix a
// multi-CPU host appends is dropped when every result carries the same
// one, and a name's own trailing digits survive otherwise.
func TestParseProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		name  string
		names []string
		want  []string
	}{
		{"one-cpu", []string{"BenchmarkA", "BenchmarkB/lanes-64"}, []string{"BenchmarkA", "BenchmarkB/lanes-64"}},
		{"two-cpu", []string{"BenchmarkA-2", "BenchmarkB/lanes-64-2"}, []string{"BenchmarkA", "BenchmarkB/lanes-64"}},
		{"many-cpu", []string{"BenchmarkA-128", "BenchmarkB/n65536-light-128"}, []string{"BenchmarkA", "BenchmarkB/n65536-light"}},
		{"mixed-suffixes", []string{"BenchmarkA/lanes-8", "BenchmarkA/lanes-64"}, []string{"BenchmarkA/lanes-8", "BenchmarkA/lanes-64"}},
		{"trailing-dash", []string{"BenchmarkA-", "BenchmarkB-"}, []string{"BenchmarkA-", "BenchmarkB-"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := parseBench(strings.NewReader(benchStream("p", 10, 0, 0, tc.names...)))
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(tc.want) {
				t.Fatalf("got %d results %v, want %v", len(res), res, tc.want)
			}
			for _, w := range tc.want {
				if _, ok := res["p:"+w]; !ok {
					t.Fatalf("missing key p:%s; got %v", w, res)
				}
			}
		})
	}
}

// TestRunAcrossCPUCounts proves a 1-CPU archive and a 2-CPU run compare
// row by row, so the gate still fires across hosts.
func TestRunAcrossCPUCounts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new []string
	}{
		{"archive-1cpu-run-2cpu", []string{"BenchmarkA", "BenchmarkB"}, []string{"BenchmarkA-2", "BenchmarkB-2"}},
		{"archive-2cpu-run-1cpu", []string{"BenchmarkA-2", "BenchmarkB-2"}, []string{"BenchmarkA", "BenchmarkB"}},
		{"archive-4cpu-run-2cpu", []string{"BenchmarkA-4", "BenchmarkB-4"}, []string{"BenchmarkA-2", "BenchmarkB-2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oldP, newP := writeRuns(t,
				benchStream("p", 100, 0, 0, tc.old...),
				benchStream("p", 300, 0, 0, tc.new...))
			var out strings.Builder
			code, err := run(oldP, newP, 100, &out)
			if err != nil {
				t.Fatal(err)
			}
			if code == 0 || strings.Count(out.String(), "REGRESSED") != 2 || strings.Contains(out.String(), "only in") {
				t.Fatalf("a 200%% regression on both rows must fail the gate; code %d, output:\n%s", code, out.String())
			}
		})
	}
}

func TestParseSplitLine(t *testing.T) {
	in := stream("repro/internal/fleet", 163.8, 1, 0)
	res, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := res["repro/internal/fleet:BenchmarkIngest"]
	if !ok {
		t.Fatalf("benchmark not found; got %v", res)
	}
	if r.iters != 123456 {
		t.Fatalf("iters = %d, want 123456", r.iters)
	}
	if got := r.metrics["ns/op"]; got != 163.8 {
		t.Fatalf("ns/op = %v, want 163.8", got)
	}
	if got := r.metrics["MB/s"]; got != 44.04 {
		t.Fatalf("MB/s = %v, want 44.04", got)
	}
	if got, ok := r.metrics["allocs/op"]; !ok || got != 0 {
		t.Fatalf("allocs/op = %v (present=%v), want 0", got, ok)
	}
}

func TestParseRejectsNonBenchLines(t *testing.T) {
	in := strings.Join([]string{
		ev("p", "=== RUN   BenchmarkX\n"),
		ev("p", "BenchmarkX\n"),
		ev("p", "ok  \trepro\t1.2s\n"),
		ev("p", "--- PASS: TestY (0.00s)\n"),
	}, "\n")
	res, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("expected no results, got %v", res)
	}
}

func TestRunFailOver(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldP, []byte(stream("repro/internal/fleet", 100, 1, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newP, []byte(stream("repro/internal/fleet", 130, 1, 0)), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	code, err := run(oldP, newP, 50, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("30%% regression under a 50%% threshold should pass; output:\n%s", out.String())
	}

	out.Reset()
	code, err = run(oldP, newP, 20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code == 0 {
		t.Fatalf("30%% regression over a 20%% threshold should fail; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("failing diff should mark the regressed row; output:\n%s", out.String())
	}
}

func TestRunImprovementPasses(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldP, []byte(stream("repro/internal/fleet", 160, 1, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newP, []byte(stream("repro/internal/fleet", 43, 1, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run(oldP, newP, 10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("a speedup must pass any threshold; output:\n%s", out.String())
	}
}

// TestRunDisjointBenchmarks pins the handling of benchmarks present in
// only one run: listed without failing the gate while at least one
// benchmark compares, and a hard failure when none does.
func TestRunDisjointBenchmarks(t *testing.T) {
	shared := stream("repro/internal/fleet", 100, 1, 0)
	oldP, newP := writeRuns(t,
		shared+stream("repro/internal/hwslice", 30, 0, 0),
		shared+stream("repro/internal/obs", 30, 0, 0))
	var out strings.Builder
	code, err := run(oldP, newP, 10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("benchmarks only in one run must not fail the gate; output:\n%s", out.String())
	}
	if strings.Count(out.String(), "only in") != 2 {
		t.Fatalf("benchmarks only in one run should be listed; output:\n%s", out.String())
	}

	oldP, newP = writeRuns(t,
		stream("repro/internal/fleet", 100, 1, 0),
		stream("repro/internal/hwslice", 30, 0, 0))
	out.Reset()
	code, err = run(oldP, newP, 10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code == 0 || !strings.Contains(out.String(), "share no benchmark") {
		t.Fatalf("wholly disjoint runs compare nothing and must fail; code %d, output:\n%s", code, out.String())
	}
}

func TestRealArchiveRoundTrip(t *testing.T) {
	// The committed archive, when present, must parse and self-diff clean:
	// identical files have zero delta and exit 0 at any threshold.
	path := filepath.Join("..", "..", "BENCH_latest.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("no committed BENCH_latest.json")
	}
	var out strings.Builder
	code, err := run(path, path, 1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("self-diff must pass; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ns/op") {
		t.Fatalf("self-diff should report rows; output:\n%s", out.String())
	}
}

// TestRunZeroAllocHardFailure pins the always-on allocation gate: a
// benchmark archived at 0 allocs/op that now allocates fails the run even
// when the ns/op threshold is generous or disabled entirely.
func TestRunZeroAllocHardFailure(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldP, []byte(stream("repro/internal/fleet", 100, 0, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newP, []byte(stream("repro/internal/fleet", 100, 16, 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, failOver := range []float64{0, 1000} {
		var out strings.Builder
		code, err := run(oldP, newP, failOver, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code == 0 {
			t.Fatalf("0 -> 1 allocs/op must fail at -fail-over %v; output:\n%s", failOver, out.String())
		}
		if !strings.Contains(out.String(), "was 0 allocs/op") {
			t.Fatalf("failing diff should mark the broken zero-alloc row; output:\n%s", out.String())
		}
	}

	// A nonzero baseline drifting is reported but never a hard failure.
	if err := os.WriteFile(oldP, []byte(stream("repro/internal/fleet", 100, 16, 2)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newP, []byte(stream("repro/internal/fleet", 100, 24, 3)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run(oldP, newP, 0, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("2 -> 3 allocs/op is not a zero-alloc break; output:\n%s", out.String())
	}
}
