package main

import (
	"bytes"
	"strings"
	"testing"
)

func testOptions() options {
	return options{
		n: 128, variant: "medium", family: "all", format: "table",
		trials: 3, onset: 512, maxBits: 1 << 15, seed: 1,
	}
}

// TestStuckSweepDetectsEveryTrial pins the harness end to end: a stuck-at
// defect is the easiest detection there is, so every trial must detect,
// with a positive latency.
func TestStuckSweepDetectsEveryTrial(t *testing.T) {
	var out, errb bytes.Buffer
	o := testOptions()
	o.family = "stuck"
	o.stdout, o.stderr = &out, &errb
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "stuck") || !strings.Contains(got, "3/3") {
		t.Fatalf("sweep output missing full detection:\n%s", got)
	}
	if strings.Contains(got, "level=0") == false || strings.Contains(got, "level=1") == false {
		t.Fatalf("missing stuck severities:\n%s", got)
	}
}

// TestIdealBaselineNeverDetects pins the false-alarm baseline at the test
// horizon: the ideal family must report 0 detections.
func TestIdealBaselineNeverDetects(t *testing.T) {
	var out, errb bytes.Buffer
	o := testOptions()
	o.family = "ideal"
	o.stdout, o.stderr = &out, &errb
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "0/3") {
		t.Fatalf("ideal baseline raised a false alarm:\n%s", out.String())
	}
}

// TestCSVFormat pins the machine-readable output contract.
func TestCSVFormat(t *testing.T) {
	var out, errb bytes.Buffer
	o := testOptions()
	o.family = "stuck"
	o.format = "csv"
	o.stdout, o.stderr = &out, &errb
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "family,severity,trials,detected,median_ttd_bits,mean_ttd_bits,min_ttd_bits,max_ttd_bits" {
		t.Fatalf("csv header changed: %s", lines[0])
	}
	if len(lines) != 3 { // header + two stuck severities
		t.Fatalf("want 3 csv lines, got %d:\n%s", len(lines), out.String())
	}
}

// TestDeterministicOutput proves a sweep is a pure function of its flags.
func TestDeterministicOutput(t *testing.T) {
	runOnce := func() string {
		var out, errb bytes.Buffer
		o := testOptions()
		o.family = "stuck"
		o.stdout, o.stderr = &out, &errb
		if code := run(o); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		return out.String()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("sweep not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestBadFlags pins the configuration-error exit code. The format case
// finishes only if -format is checked before the sweep: an ideal source
// seldom alarms, so its trials would each run toward 2^40 bits.
func TestBadFlags(t *testing.T) {
	for name, mutate := range map[string]func(*options){
		"family":    func(o *options) { o.family = "gremlin" },
		"format":    func(o *options) { o.format = "xml"; o.family = "ideal"; o.maxBits = 1 << 40 },
		"variant":   func(o *options) { o.variant = "turbo" },
		"window":    func(o *options) { o.window = 100 },
		"trials":    func(o *options) { o.trials = 0 },
		"horizon":   func(o *options) { o.maxBits = 100; o.onset = 200 },
		"design":    func(o *options) { o.n = 100 },
		"threshold": func(o *options) { o.threshold = -1 },
	} {
		var out, errb bytes.Buffer
		o := testOptions()
		mutate(&o)
		o.stdout, o.stderr = &out, &errb
		if code := run(o); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, errb.String())
		}
	}
}
