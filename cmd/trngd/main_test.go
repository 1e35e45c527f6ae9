package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func testOptions() options {
	return options{
		n:             128,
		variant:       "light",
		alpha:         0.01,
		streams:       48,
		words:         16,
		generations:   1,
		shards:        4,
		policy:        "block",
		faultyFrac:    0.25,
		transientRate: 0.2,
		biasedFrac:    0.125,
		bias:          0.9,
		seed:          1,
	}
}

func TestRunCleanFleet(t *testing.T) {
	var out, errOut bytes.Buffer
	o := testOptions()
	o.stdout, o.stderr = &out, &errOut
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"streams: 48 completed",
		"breaker trips",
		"conditions:",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// The defect zoo must have exercised isolation: the stormer tenants
	// trip breakers (3 of the 12 faulty tenants), everyone else completes.
	if !strings.Contains(got, "3 breaker trips") {
		t.Fatalf("expected 3 breaker trips:\n%s", got)
	}
	if !strings.Contains(got, "3 source-fault") {
		t.Fatalf("expected 3 source-fault conditions:\n%s", got)
	}
}

func TestRunBitSlicedFleet(t *testing.T) {
	// The full defect zoo through the bit-sliced ingest path: verdict
	// counts, breaker trips and the batch accounting identity must all
	// come out exactly as the serial path produces them (run exits 2 on
	// any accounting leak).
	var out, errOut bytes.Buffer
	o := testOptions()
	o.bitSliced = true
	o.words = 32
	o.stdout, o.stderr = &out, &errOut
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "ingest=bitsliced") {
		t.Fatalf("banner should report the ingest mode:\n%s", got)
	}
	if !strings.Contains(got, "streams: 48 completed") {
		t.Fatalf("all streams must complete under bit-sliced ingest:\n%s", got)
	}
	if !strings.Contains(got, "3 breaker trips") {
		t.Fatalf("fault isolation must match the serial path (3 stormers):\n%s", got)
	}
}

func TestRunGenerationsRecycleMonitors(t *testing.T) {
	var out, errOut bytes.Buffer
	o := testOptions()
	o.streams = 8
	o.generations = 3
	o.stdout, o.stderr = &out, &errOut
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "streams: 24 completed") {
		t.Fatalf("want 8 slots x 3 generations = 24 completed streams:\n%s", out.String())
	}
}

func TestRunShedPolicyUnderPressure(t *testing.T) {
	var out, errOut bytes.Buffer
	o := testOptions()
	o.streams = 32
	o.words = 64
	o.shards = 1
	o.queue = 2
	o.policy = "shed"
	o.faultyFrac = 0
	o.biasedFrac = 0
	o.stdout, o.stderr = &out, &errOut
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	// The accounting identity is enforced by run itself (exit 2 on any
	// leak); here we only require the roll-up to be present.
	if !strings.Contains(out.String(), "batches:") {
		t.Fatalf("missing batch roll-up:\n%s", out.String())
	}
}

func TestRunStreamDeadlineSweeper(t *testing.T) {
	var out, errOut bytes.Buffer
	o := testOptions()
	o.streams = 8
	o.deadline = time.Hour // armed, but nothing plausibly stalls
	o.sweepEvery = 10 * time.Millisecond
	o.stdout, o.stderr = &out, &errOut
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "0 watchdog") {
		t.Fatalf("no stream should have stalled:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := []func(*options){
		func(o *options) { o.variant = "nope" },
		func(o *options) { o.policy = "nope" },
		func(o *options) { o.n = 100 },
		func(o *options) { o.streams = 0 },
	}
	for i, mutate := range cases {
		var out, errOut bytes.Buffer
		o := testOptions()
		o.stdout, o.stderr = &out, &errOut
		mutate(&o)
		if code := run(o); code != 2 {
			t.Fatalf("case %d: exit %d, want 2", i, code)
		}
	}
}

// TestSoakAbsorbsTiles runs the bit-sliced flags of `make soak` and
// requires the lane-group engine to have absorbed tiles. A group at offset
// zero waits for 64 lanes or for one lane buffering pressureBits (192
// words), so with too few words per generation every bit drains serially
// at Detach and the soak never exercises the sliced path (at -words 48 it
// absorbs none).
func TestSoakAbsorbsTiles(t *testing.T) {
	var out, errOut bytes.Buffer
	o := options{
		n: 128, variant: "light", alpha: 0.01, bitSliced: true,
		streams: 192, words: 256, generations: 2, shards: 8, queue: 64,
		policy: "sample", sampleEvery: 8,
		faultyFrac: 0.25, transientRate: 0.1, biasedFrac: 0.125, bias: 0.8,
		deadline: 30 * time.Second, sweepEvery: 25 * time.Millisecond, seed: 7,
		stdout: &out, stderr: &errOut,
	}
	if code := run(o); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	tiles := -1
	for _, line := range strings.Split(out.String(), "\n") {
		if _, err := fmt.Sscanf(line, "sliced: %d tiles absorbed", &tiles); err == nil {
			break
		}
	}
	if tiles <= 0 {
		t.Fatalf("bit-sliced soak absorbed %d tiles:\n%s", tiles, out.String())
	}
}
