package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runExit runs otftest in-process on one n=128 sequence and returns its
// exit code and stderr.
func runExit(variant, source string) (int, string) {
	var out, errOut strings.Builder
	code := run(options{
		n: 128, variant: variant, alpha: 0.01,
		source: source, p: 0.6, seed: 1, sequences: 1, workers: 1,
		stdout: &out, stderr: &errOut,
	})
	return code, errOut.String()
}

// TestParseVariant checks that -variant takes every design name in any
// case (n=128 has no high design, which is a different error) and rejects
// an unknown one as a flag error (exit 2).
func TestParseVariant(t *testing.T) {
	for _, v := range []string{"light", "MEDIUM", "High"} {
		if _, stderr := runExit(v, "ideal"); strings.Contains(stderr, "unknown variant") {
			t.Errorf("-variant %s rejected: %s", v, stderr)
		}
	}
	if code, _ := runExit("huge", "ideal"); code != 2 {
		t.Errorf("-variant huge: exit %d, want 2", code)
	}
}

// TestSimulatedSource checks that -source takes every simulated source
// name and rejects an unknown one as a flag error (exit 2).
func TestSimulatedSource(t *testing.T) {
	for _, kind := range []string{"ideal", "biased", "markov", "ringosc", "locked", "drift", "stuck"} {
		if code, stderr := runExit("light", kind); code == 2 {
			t.Errorf("-source %s rejected: %s", kind, stderr)
		}
	}
	if code, _ := runExit("light", "nope"); code != 2 {
		t.Errorf("-source nope: exit %d, want 2", code)
	}
}

func TestFileSourceASCII(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bits.txt")
	if err := os.WriteFile(path, []byte("1010\n1100"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := fileSource(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := 0; i < 8; i++ {
		b, err := src.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '0'+b)
	}
	if string(got) != "10101100" {
		t.Errorf("read %q", got)
	}
	if src.Name() != "file" {
		t.Errorf("Name = %q", src.Name())
	}
}

func TestFileSourceRaw(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bits.bin")
	if err := os.WriteFile(path, []byte{0xA5}, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := fileSource(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := 0; i < 8; i++ {
		b, _ := src.ReadBit()
		got = append(got, '0'+b)
	}
	if string(got) != "10100101" {
		t.Errorf("raw read %q", got)
	}
}

func TestFileSourceBadContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(path, []byte("10x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fileSource(path, false); err == nil {
		t.Error("invalid ASCII accepted")
	}
	if _, err := fileSource(filepath.Join(dir, "missing.txt"), false); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunExposesMetricFamilies runs the full pipeline in-process with the
// metrics endpoint bound to a free port, then scrapes it while the server
// goroutine is still live — the acceptance check that a plain run exposes
// at least 12 distinct metric families.
func TestRunExposesMetricFamilies(t *testing.T) {
	var out, errOut strings.Builder
	var addr string
	o := options{
		n: 128, variant: "light", alpha: 0.01,
		source: "ideal", p: 0.6, seed: 1, sequences: 3,
		workers:     1,
		metricsAddr: "127.0.0.1:0",
		traceOut:    filepath.Join(t.TempDir(), "trace.jsonl"),
		stdout:      &out, stderr: &errOut,
		boundAddr: &addr,
	}
	if code := run(o); code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if addr == "" {
		t.Fatal("run did not report the bound metrics address")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(rest)[0]] = true
		}
	}
	if len(families) < 12 {
		t.Errorf("plain run exposes %d metric families, want >= 12:\n%v", len(families), families)
	}
	for _, want := range []string{
		"trng_monitor_sequences_total", "trng_ingest_bits_total",
		"trng_regfile_bus_reads_total", "otftest_sequence_seconds",
	} {
		if !families[want] {
			t.Errorf("family %s missing from the exposition", want)
		}
	}
	if !strings.Contains(out.String(), "families exposed") {
		t.Errorf("run output missing the family summary:\n%s", out.String())
	}
	if _, err := os.Stat(o.traceOut); err != nil {
		t.Errorf("trace file not written: %v", err)
	}
}

// TestRunSupervisedTracesFaults checks the supervised path end to end:
// injected faults surface in the -trace-out file.
func TestRunSupervisedTracesFaults(t *testing.T) {
	var out, errOut strings.Builder
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	o := options{
		n: 128, variant: "light", alpha: 0.01,
		source: "ideal", p: 0.6, seed: 1, sequences: 4,
		faultRate: 0.01, faultBurst: 1,
		bitDeadline: 50 * time.Millisecond,
		workers:     1,
		traceOut:    tracePath,
		stdout:      &out, stderr: &errOut,
	}
	if code := run(o); code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"kind":"fault.flaky"`) {
		t.Errorf("trace file has no injected-fault events:\n%s", trace)
	}
}

// TestRunWithoutObsFlags pins the default path: no registry, no server, no
// trace — exactly the pre-observability behavior.
func TestRunWithoutObsFlags(t *testing.T) {
	var out, errOut strings.Builder
	o := options{
		n: 128, variant: "light", alpha: 0.01,
		source: "ideal", p: 0.6, seed: 1, sequences: 2,
		workers: 1,
		stdout:  &out, stderr: &errOut,
	}
	if code := run(o); code != 0 {
		t.Fatalf("run exited %d\nstderr:\n%s", code, errOut.String())
	}
	if strings.Contains(out.String(), "metrics:") {
		t.Errorf("uninstrumented run mentioned metrics:\n%s", out.String())
	}
}
