package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// lastLine parses the machine-readable last line of a run's output.
func lastLine(t *testing.T, out string) (line struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return line
}

// smoke runs every workload once with a time box of a few milliseconds:
// at least one whole round per repeat, every report still checked.
func smoke(t *testing.T, seed int64, trace int) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := options{seed: seed, seconds: 0.01, repeats: 1, trace: trace, stdout: &stdout, stderr: &stderr}
	if code := run(o); code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func checkMetrics(t *testing.T, out string, ms []metric) {
	t.Helper()
	line := lastLine(t, out)
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want a clean run", line.Correct, line.Attempted, line.Failed)
	}
	for _, w := range workloads {
		for _, m := range ms {
			got, ok := line.Metrics[w.name+"."+m.name]
			if !ok || got.Value == nil || math.IsNaN(*got.Value) {
				t.Errorf("%s.%s missing from the result", w.name, m.name)
				continue
			}
			if got.Unit != m.unit {
				t.Errorf("%s.%s unit %q, want %q", w.name, m.name, got.Unit, m.unit)
			}
		}
	}
	if want := len(workloads) * len(ms); len(line.Metrics) != want {
		t.Errorf("result carries %d metrics, want %d", len(line.Metrics), want)
	}
}

// TestSmokeEndToEnd runs every workload on seed 2 — not the default seed,
// so the checks hold for inputs the harness was not written against — and
// requires every end-to-end metric with its unit and a zero failed ratio.
func TestSmokeEndToEnd(t *testing.T) {
	out := smoke(t, 2, 0)
	checkMetrics(t, out, endToEnd)
	for _, w := range workloads {
		if !strings.Contains(out, w.name) {
			t.Errorf("no table rows for %s", w.name)
		}
	}
}

// TestSmokeTrace runs the -trace 1 plan of every workload and requires
// every per-layer metric with its unit, plus the Markdown ledger.
func TestSmokeTrace(t *testing.T) {
	out := smoke(t, 1, 1)
	checkMetrics(t, out, perLayer)
	if !strings.Contains(out, "| workload | ns/word |") || !strings.Contains(out, "Online gap:") {
		t.Errorf("ledger table missing:\n%s", out)
	}
}

// TestBenchmarkJSONMatchesRegistry is the drift gate: the workloads and
// metrics BENCHMARK.json declares are exactly the harness's own.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json {%q, %q}, harness {%q, %q}", i, got.Name, got.Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, harness {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s %s: BENCHMARK.json bound %v, harness %v", kind, m.name, g.Bound, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	widest := 0.0
	for _, m := range endToEnd {
		widest = max(widest, m.bound)
	}
	for _, m := range endToEnd {
		if m.name == "setup_s" && m.bound != widest {
			t.Errorf("setup_s bound %v is not the widest (%v)", m.bound, widest)
		}
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(data, n=4), which outside checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestHistogramResolution checks the latency histogram's bucket math:
// exact below 32 ns, within 3.2 % above.
func TestHistogramResolution(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 12345, 1 << 20, 987654321} {
		mid := bucketMid(bucketOf(v))
		if v < 32 && mid != float64(v) {
			t.Errorf("bucketMid(bucketOf(%d)) = %v, want exact", v, mid)
		}
		if err := math.Abs(mid-float64(v)) / math.Max(1, float64(v)); err > 0.032 {
			t.Errorf("bucketMid(bucketOf(%d)) = %v, off by %.1f%%", v, mid, 100*err)
		}
	}
	var h histogram
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 1000)
	}
	if p50 := h.quantile(0.5); math.Abs(p50-500_000)/500_000 > 0.032 {
		t.Errorf("p50 of 1..1000 µs = %v ns", p50)
	}
}
