package analysis_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/gorolife"
	"repro/internal/analysis/guardedby"
	"repro/internal/analysis/hotcall"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/nodefer"
	"repro/internal/analysis/resetcheck"
)

// The concurrency mutation-kill suite: each analyzer must catch the seeded
// race it was written for. Every mutation starts from a clean program that
// the analyzer accepts, re-introduces one deliberate concurrency defect —
// the same class of bug the annotations in internal/fleet and internal/obs
// guard against — and asserts the analyzer fires. An analyzer that stays
// silent on its mutation is dead weight, so these tests are the conclint
// family's own regression gate. Two tests replay defects in a scratch
// copy of the real module: the pushMu ordering stripped out of
// Stream.Detach (the detach TOCTOU fixed in the fleet ingest path) must
// make guardedby fire, and the per-trial Reset removed from
// SequenceRunner.Run must make resetcheck fire.

// runAnalyzer writes src as the single file of package pkg under a scratch
// testdata overlay, loads and type-checks it, and returns the analyzer's
// diagnostic messages.
func runAnalyzer(t *testing.T, a *analysis.Analyzer, pkg, src string) []string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "src", pkg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, pkg+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := load.NewTestdataLoader(filepath.Join(root, "src"))
	targets, err := l.Load(pkg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := targets[0]
	if len(tgt.TypeErrors) > 0 {
		t.Fatalf("source does not type-check: %v", tgt.TypeErrors)
	}
	unit := &analysis.Unit{Fset: tgt.Fset, Files: tgt.Files, Pkg: tgt.Pkg, Info: tgt.Info}
	diags, err := analysis.Run(unit, a)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]string, len(diags))
	for i, d := range diags {
		msgs[i] = d.Message
	}
	return msgs
}

// assertClean demands the clean baseline really is clean — a mutation kill
// proves nothing if the analyzer also fires on the healthy program.
func assertClean(t *testing.T, msgs []string) {
	t.Helper()
	if len(msgs) != 0 {
		t.Fatalf("clean baseline has findings: %v", msgs)
	}
}

// assertKilled demands at least one finding containing want.
func assertKilled(t *testing.T, msgs []string, want string) {
	t.Helper()
	for _, m := range msgs {
		if strings.Contains(m, want) {
			return
		}
	}
	t.Errorf("mutation survived: no finding containing %q; got %v", want, msgs)
}

// mustReplace is strings.Replace that fails the test when the needle is
// absent, so a refactor of the baseline cannot silently defuse a mutation.
func mustReplace(t *testing.T, src, old, new string) string {
	t.Helper()
	if !strings.Contains(src, old) {
		t.Fatalf("mutation site %q not found in source", old)
	}
	return strings.Replace(src, old, new, 1)
}

func TestMutationGuardedFieldUnlockedAccess(t *testing.T) {
	const clean = `package mut

import "sync"

type S struct {
	mu sync.Mutex
	//trnglint:guardedby mu
	n int
}

func (s *S) bump() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}
`
	assertClean(t, runAnalyzer(t, guardedby.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean, "\ts.mu.Lock()\n\ts.n++\n\ts.mu.Unlock()\n", "\ts.n++\n")
	assertKilled(t, runAnalyzer(t, guardedby.Analyzer, "mut", mutant),
		"n is guarded by mu")
}

func TestMutationGuardedFieldLockReleasedTooEarly(t *testing.T) {
	// The subtler seed: the lock is still taken, but released before the
	// last guarded access — a plain remove-the-lock grep would miss it,
	// the flow-sensitive walk must not.
	const clean = `package mut

import "sync"

type S struct {
	mu sync.Mutex
	//trnglint:guardedby mu
	n int
}

func (s *S) drain() int {
	s.mu.Lock()
	v := s.n
	s.n = 0
	s.mu.Unlock()
	return v
}
`
	assertClean(t, runAnalyzer(t, guardedby.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean, "\ts.n = 0\n\ts.mu.Unlock()\n", "\ts.mu.Unlock()\n\ts.n = 0\n")
	assertKilled(t, runAnalyzer(t, guardedby.Analyzer, "mut", mutant),
		"n is guarded by mu")
}

func TestMutationAtomicPlainRead(t *testing.T) {
	const clean = `package mut

import "sync/atomic"

type S struct{ hits int64 }

func (s *S) bump() { atomic.AddInt64(&s.hits, 1) }

func (s *S) read() int64 { return atomic.LoadInt64(&s.hits) }
`
	assertClean(t, runAnalyzer(t, atomicmix.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean, "return atomic.LoadInt64(&s.hits)", "return s.hits")
	assertKilled(t, runAnalyzer(t, atomicmix.Analyzer, "mut", mutant),
		"accessed via sync/atomic elsewhere in this package")
}

// vetCopylocks writes src as the single file of a scratch module and
// returns what go vet -copylocks reports on it: atomicmix leaves copies of
// atomic-bearing structs to vet, so vet is the analyzer these mutations
// must trip.
func vetCopylocks(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module mut\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "mut.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-copylocks", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("go vet did not run: %v\n%s", err, out)
	}
	return string(out)
}

// TestMutationAtomicStructCopied plants one copy of an atomic-bearing
// struct per shape and demands go vet -copylocks report it. The
// interface-boxed argument is the shape a parameter-type check cannot
// see; vet checks the argument.
func TestMutationAtomicStructCopied(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	const clean = `package mut

import "sync/atomic"

type S struct{ flag atomic.Bool }

type wrapper struct{ inner S }

func sink(v any) { _ = v }

func snapshot(s *S) bool { return s.flag.Load() }
`
	if out := vetCopylocks(t, clean); out != "" {
		t.Fatalf("clean baseline has findings:\n%s", out)
	}
	const site = "func snapshot(s *S) bool { return s.flag.Load() }"
	for _, m := range []struct{ name, mutant, want string }{
		{"deref copy", "func snapshot(s *S) bool { c := *s; return c.flag.Load() }",
			"assignment copies lock value to c"},
		{"by-value param", "func snapshot(s S) bool { return s.flag.Load() }",
			"snapshot passes lock by value"},
		{"assignment copy", "func snapshot(s *S) bool { var a S; b := a; return b.flag.Load() }",
			"assignment copies lock value to b"},
		{"nested-struct return", site + "\n\nfunc unwrap(w *wrapper) wrapper { return *w }",
			"return copies lock value: mut.wrapper contains mut.S"},
		{"interface-boxed argument", "func snapshot(s *S) bool { sink(*s); return s.flag.Load() }",
			"call of sink copies lock value"},
	} {
		t.Run(m.name, func(t *testing.T) {
			out := vetCopylocks(t, mustReplace(t, clean, site, m.mutant))
			if !strings.Contains(out, m.want) {
				t.Errorf("mutation survived: go vet -copylocks output lacks %q:\n%s", m.want, out)
			}
		})
	}
}

func TestMutationLockOrderInverted(t *testing.T) {
	const clean = `package mut

import "sync"

var a, b sync.Mutex

func first() {
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func second() {
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}
`
	assertClean(t, runAnalyzer(t, lockorder.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean,
		"func second() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}",
		"func second() {\n\tb.Lock()\n\ta.Lock()\n\ta.Unlock()\n\tb.Unlock()\n}")
	assertKilled(t, runAnalyzer(t, lockorder.Analyzer, "mut", mutant),
		"lock order inversion")
}

func TestMutationLockOrderIndirectSelfDeadlock(t *testing.T) {
	const clean = `package mut

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) length() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return 0
}

func (s *S) report() int {
	return s.length()
}
`
	assertClean(t, runAnalyzer(t, lockorder.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean,
		"func (s *S) report() int {\n\treturn s.length()\n}",
		"func (s *S) report() int {\n\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n\treturn s.length()\n}")
	assertKilled(t, runAnalyzer(t, lockorder.Analyzer, "mut", mutant),
		"self-deadlock")
}

func TestMutationGoroutineJoinRemoved(t *testing.T) {
	const clean = `package mut

import "sync"

func work() {}

func spawn(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}
`
	assertClean(t, runAnalyzer(t, gorolife.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean, "\t\tdefer wg.Done()\n", "")
	assertKilled(t, runAnalyzer(t, gorolife.Analyzer, "mut", mutant),
		"no provable join or quit path")
}

// ---- the real-module replays: the fleet detach TOCTOU, the runner's Reset ----

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// copyModule clones go.mod plus every non-test Go file under internal/
// into a scratch module, skipping testdata trees, so a mutation can be
// seeded into real sources without touching the checkout.
func copyModule(t *testing.T) string {
	t.Helper()
	src := moduleRoot(t)
	dst := t.TempDir()
	mod, err := os.ReadFile(filepath.Join(src, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "go.mod"), mod, 0o644); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(filepath.Join(src, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestMutationFleetDetachTOCTOU re-introduces the exact race the fleet
// ingest path once shipped with: Stream.Detach setting detached and
// enqueueing the detach item without holding pushMu, so a producer's
// check-then-enqueue could land a word item behind the detach item. The
// //trnglint:holds annotation on flushStaged must make guardedby flag the
// now-unordered flush call in the mutated copy of the real module.
func TestMutationFleetDetachTOCTOU(t *testing.T) {
	root := copyModule(t)
	streamGo := filepath.Join(root, "internal", "fleet", "stream.go")
	data, err := os.ReadFile(streamGo)
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	mutant := mustReplace(t, src,
		"s.detachOnce.Do(func() {\n\t\ts.pushMu.Lock()\n",
		"s.detachOnce.Do(func() {\n")
	mutant = mustReplace(t, mutant,
		"\t\ts.sh.queue <- item{s: s, kind: itemDetach}\n\t\ts.pushMu.Unlock()\n",
		"\t\ts.sh.queue <- item{s: s, kind: itemDetach}\n")
	if err := os.WriteFile(streamGo, []byte(mutant), 0o644); err != nil {
		t.Fatal(err)
	}
	assertKilled(t, analyzeModule(t, root, "repro/internal/fleet", guardedby.Analyzer),
		"flushStaged requires pushMu held")
}

// TestMutationSequenceRunnerResetRemoved deletes the per-trial Reset from
// SequenceRunner.Run's worker loop, which runs inside a goroutine literal,
// in a scratch copy of the real module: resetcheck must report the loop's
// fresh-source Watch, which would otherwise carry one trial's state into
// the next and break the runner's determinism.
func TestMutationSequenceRunnerResetRemoved(t *testing.T) {
	root := copyModule(t)
	runnerGo := filepath.Join(root, "internal", "core", "runner.go")
	data, err := os.ReadFile(runnerGo)
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, analyzeModule(t, root, "repro/internal/core", resetcheck.Analyzer))
	mutant := mustReplace(t, string(data), "\t\t\t\tm.Reset()\n\t\t\t\treps, err := m.Watch(",
		"\t\t\t\treps, err := m.Watch(")
	if err := os.WriteFile(runnerGo, []byte(mutant), 0o644); err != nil {
		t.Fatal(err)
	}
	assertKilled(t, analyzeModule(t, root, "repro/internal/core", resetcheck.Analyzer),
		`Watch on monitor "m" builds a fresh source every loop iteration`)
}

// analyzeModule loads one package of the module at root, which must
// type-check, and returns a's diagnostic messages on it.
func analyzeModule(t *testing.T, root, pkg string, a *analysis.Analyzer) []string {
	t.Helper()
	l, err := load.NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := l.Load(pkg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := targets[0]
	if len(tgt.TypeErrors) > 0 {
		t.Fatalf("%s does not type-check: %v", pkg, tgt.TypeErrors)
	}
	unit := &analysis.Unit{Fset: tgt.Fset, Files: tgt.Files, Pkg: tgt.Pkg, Info: tgt.Info}
	diags, err := analysis.Run(unit, a)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	return msgs
}

// ---- the perflint mutation kills ----

func TestMutationHotPathAllocation(t *testing.T) {
	const clean = `package mut

//trnglint:hotpath
func kernel(buf *[8]uint64, w uint64) {
	buf[0] = w
}
`
	assertClean(t, runAnalyzer(t, noalloc.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean, "\tbuf[0] = w\n",
		"\ttmp := make([]uint64, 1)\n\ttmp[0] = w\n\tbuf[0] = tmp[0]\n")
	assertKilled(t, runAnalyzer(t, noalloc.Analyzer, "mut", mutant),
		"make allocates")
}

func TestMutationHotPathColdCall(t *testing.T) {
	const clean = `package mut

import (
	"math/bits"
	"os"
)

var home = os.Getenv("HOME")

//trnglint:hotpath
func kernel(w uint64) int {
	return bits.OnesCount64(w)
}
`
	assertClean(t, runAnalyzer(t, hotcall.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean, "\treturn bits.OnesCount64(w)\n",
		"\t_ = os.Getenv(\"HOME\")\n\treturn bits.OnesCount64(w)\n")
	assertKilled(t, runAnalyzer(t, hotcall.Analyzer, "mut", mutant),
		"calls non-hot os.Getenv")
}

func TestMutationHotPathDefer(t *testing.T) {
	const clean = `package mut

import "sync"

type S struct {
	mu sync.Mutex
	n  uint64
}

//trnglint:hotpath
func (s *S) bump() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}
`
	assertClean(t, runAnalyzer(t, nodefer.Analyzer, "mut", clean))
	mutant := mustReplace(t, clean, "\ts.mu.Lock()\n\ts.n++\n\ts.mu.Unlock()\n",
		"\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n\ts.n++\n")
	assertKilled(t, runAnalyzer(t, nodefer.Analyzer, "mut", mutant),
		"defer schedules work at function exit")
}

// TestMutationFleetStagingAllocation replays a perflint regression against
// the real module: a heap allocation planted into Stream.stage, the
// lock-free staging routine behind both Push and PushWords on bit-sliced
// pools — the exact code the FleetBitSliced 0 allocs/op benchmark gate
// measures — must be re-flagged by noalloc in a scratch copy of the
// repository.
func TestMutationFleetStagingAllocation(t *testing.T) {
	root := copyModule(t)
	streamGo := filepath.Join(root, "internal", "fleet", "stream.go")
	data, err := os.ReadFile(streamGo)
	if err != nil {
		t.Fatal(err)
	}
	mutant := mustReplace(t, string(data),
		"\t\tcopy(s.stg.words[idx][n:n+k], ws)\n",
		"\t\tstaged := make([]uint64, k)\n\t\tcopy(staged, ws)\n\t\tcopy(s.stg.words[idx][n:n+k], staged)\n")
	if err := os.WriteFile(streamGo, []byte(mutant), 0o644); err != nil {
		t.Fatal(err)
	}
	assertKilled(t, analyzeModule(t, root, "repro/internal/fleet", noalloc.Analyzer),
		"hot path Stream.stage: make allocates")
}
