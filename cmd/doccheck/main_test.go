package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a file under dir, creating parents.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestUndocumentedExportsAreFindings pins the per-identifier audit: an
// undocumented exported func, type, method, const and package comment each
// produce one finding; documented and unexported identifiers none.
func TestUndocumentedExportsAreFindings(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "p.go", `package p

// Documented is fine.
func Documented() {}

func Naked() {}

type Bare struct{}

// T is documented.
type T struct{}

func (T) Method() {}

const Loose = 1

// internal identifiers need no docs
func hidden() {}
var quiet int
`)
	var out, errb bytes.Buffer
	if code := run([]string{dir}, nil, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"no package comment", "func Naked", "type Bare", "method T.Method", "const Loose",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing finding %q in:\n%s", want, got)
		}
	}
	for _, silent := range []string{"Documented", "hidden", "quiet"} {
		if strings.Contains(got, silent) {
			t.Errorf("false finding on %q in:\n%s", silent, got)
		}
	}
}

// TestCleanPackagePasses pins the zero-findings exit.
func TestCleanPackagePasses(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "p.go", `// Package p is fully documented.
package p

// Exported does nothing.
func Exported() {}
`)
	var out, errb bytes.Buffer
	if code := run([]string{dir}, nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; out: %s; stderr: %s", code, out.String(), errb.String())
	}
}

// TestEllipsisNamesPackageDirs pins the dir/... expansion: every
// directory below holding a non-test Go file, once, without testdata.
func TestEllipsisNamesPackageDirs(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"a.go", "b/x.go", "c.go", "testdata/t.go", "d/only_test.go", ".e/e.go"} {
		write(t, dir, f, "package p\n")
	}
	got, err := expand([]string{dir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{dir, filepath.Join(dir, "b")}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("expand = %v, want %v", got, want)
	}
}

// chdirRepoRoot moves the test to the module root (where the audited
// packages and the Makefile live) and restores the old directory after.
func chdirRepoRoot(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	for i := 0; i < 8; i++ {
		if _, err := os.Stat("go.mod"); err == nil {
			return
		}
		if err := os.Chdir(".."); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("module root not found")
}

// TestRepoPackagesAreDocumented runs the audit `make docs-check` runs
// (CI's generated-docs step) over every package under internal/ and cmd/
// — the test IS the gate, one build earlier.
func TestRepoPackagesAreDocumented(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb bytes.Buffer
	if code := run([]string{"./internal/...", "./cmd/..."}, []string{"EXPERIMENTS.md"}, &out, &errb); code != 0 {
		t.Fatalf("repo audit failed (exit %d):\n%s%s", code, out.String(), errb.String())
	}
}

// TestStaleReproCommandsAreFindings pins the methodology-document check:
// a fenced command naming a missing ./cmd directory or make target fails;
// prose mentions outside fences are ignored.
func TestStaleReproCommandsAreFindings(t *testing.T) {
	chdirRepoRoot(t) // make-target lookups read the repository Makefile
	dir := t.TempDir()
	md := write(t, dir, "EXP.md", "Prose may say go run ./cmd/ghost freely.\n"+
		"```\n$ go run ./cmd/ghost -n 128\nmake phantom\nmake bench FLAG=1\n```\n")
	var out, errb bytes.Buffer
	if code := run(nil, []string{md}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "./cmd/ghost") || !strings.Contains(got, `"phantom"`) {
		t.Fatalf("missing findings in:\n%s", got)
	}
	if strings.Count(got, "./cmd/ghost") != 1 {
		t.Fatalf("prose mention outside the fence was flagged:\n%s", got)
	}
	// The real bench target must not be a finding even with a variable
	// assignment argument after it.
	if strings.Contains(got, "bench") {
		t.Fatalf("existing make target flagged:\n%s", got)
	}
}
