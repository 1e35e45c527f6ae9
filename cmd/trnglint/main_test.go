package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestRepositoryIsLintClean runs the full analyzer suite over the whole
// module — exactly what CI's lint job runs — and requires zero findings.
// Every intentional exception in the tree carries a //trnglint: waiver
// with its reason, so a failure here is either a real invariant break or
// an undocumented exception; both should fail the build.
func TestRepositoryIsLintClean(t *testing.T) {
	findings, err := Lint("../..", analyzers, "./...")
	if err != nil {
		t.Fatalf("lint failed to run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestRepositoryIsCopylocksClean runs go vet -copylocks over the whole
// module. atomicmix leaves copies of atomic-bearing structs to vet, so
// this keeps such a copy failing go test the way the analyzers' own
// findings do above.
func TestRepositoryIsCopylocksClean(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	cmd := exec.Command("go", "vet", "-copylocks", "./...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -copylocks: %v\n%s", err, out)
	}
}

// TestSelectAnalyzers pins the -only flag behaviour.
func TestSelectAnalyzers(t *testing.T) {
	suite, err := selectAnalyzers("regwidth, errdrop")
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 2 || suite[0].Name != "regwidth" || suite[1].Name != "errdrop" {
		t.Fatalf("wrong suite: %v", suite)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("want unknown-analyzer error, got %v", err)
	}
}

// TestSuiteCoversAllInvariants keeps the paper invariants and the
// concurrency contracts wired: a dropped analyzer would silently weaken
// the gate.
func TestSuiteCoversAllInvariants(t *testing.T) {
	want := map[string]bool{
		"regwidth": true, "determinism": true, "errdrop": true, "resetcheck": true,
		"guardedby": true, "atomicmix": true, "lockorder": true, "gorolife": true,
		"noalloc": true, "hotcall": true, "nodefer": true,
	}
	for _, a := range analyzers {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
	}
	for name := range want {
		t.Errorf("analyzer %q missing from the suite", name)
	}
}

// TestSuiteIsSorted pins the deterministic registration order: -list, the
// usage text, -only errors and the per-analyzer timing report all iterate
// the suite in name order no matter how the families are registered.
func TestSuiteIsSorted(t *testing.T) {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("suite is not sorted by name: %v", names)
	}
}

// TestExitCodes pins the go-vet exit convention the CI gate relies on:
// 0 clean, 1 findings, 2 when the run itself fails. The dirty fixture
// lives under testdata so only these tests ever load it.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		only     string
		patterns []string
		want     int
	}{
		{"clean", "", []string{"internal/tables"}, 0},
		{"findings", "gorolife", []string{"cmd/trnglint/testdata/dirty"}, 1},
		{"bad pattern", "", []string{"no/such/dir"}, 2},
		{"bad analyzer", "nosuch", []string{"internal/tables"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(&stdout, &stderr, tc.only, false, false, tc.patterns)
			if got != tc.want {
				t.Errorf("exit code %d, want %d (stdout %q, stderr %q)",
					got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestJSONOutput pins the -json exposition: one JSON object per finding
// with the file/line/analyzer fields CI annotation tooling keys on, for a
// conclint finding and a perflint one.
func TestJSONOutput(t *testing.T) {
	cases := []struct {
		name     string
		only     string
		pattern  string
		file     string
		contains string
	}{
		{"gorolife", "gorolife", "cmd/trnglint/testdata/dirty", "dirty.go", "join or quit"},
		{"noalloc", "noalloc", "cmd/trnglint/testdata/dirtyhot", "dirtyhot.go", "hot path kernel: make allocates"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(&stdout, &stderr, tc.only, true, false, []string{tc.pattern})
			if code != 1 {
				t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if len(lines) != 1 {
				t.Fatalf("want exactly one JSON finding, got %d: %q", len(lines), stdout.String())
			}
			var f Finding
			if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
				t.Fatalf("output is not JSON: %v (%q)", err, lines[0])
			}
			if !strings.HasSuffix(f.File, tc.file) || f.Line <= 0 || f.Col <= 0 ||
				f.Analyzer != tc.only || !strings.Contains(f.Message, tc.contains) {
				t.Errorf("unexpected finding: %+v", f)
			}
		})
	}
}

// TestTimingOutput pins -time: one per-analyzer wall-time line on stderr.
func TestTimingOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, "regwidth,gorolife", false, true,
		[]string{"internal/tables"}); code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr %q)", code, stderr.String())
	}
	for _, name := range []string{"regwidth", "gorolife"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("stderr lacks a timing line for %s: %q", name, stderr.String())
		}
	}
}
