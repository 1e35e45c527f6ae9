package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// lockProbe type-checks a method body on a struct with several mutexes
// and returns, for each sink() call in source order, the comma-joined
// names of the mutexes provably held there ("!unprovable" when the walk
// was frozen by goto). assumed seeds the walk with the named receiver
// fields, modelling a //trnglint:holds precondition.
func lockProbe(t *testing.T, body string, assumed ...string) []string {
	t.Helper()
	src := fmt.Sprintf(`package p

import "sync"

type Inner struct{ imu sync.Mutex }

type T struct {
	sync.Mutex
	mu sync.Mutex
	rw sync.RWMutex
	in *Inner
	n  int
}

var gmu sync.Mutex

func sink() {}

func (t *T) f(cond, cond2 bool, k int, ch chan int, items []int) {
%s
}`, body)
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "lockflow.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v\n%s", err, src)
	}
	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			fn = fd
		}
	}
	tObj := pkg.Scope().Lookup("T").(*types.TypeName)
	st := tObj.Type().Underlying().(*types.Struct)
	var seeds []types.Object
	for _, name := range assumed {
		found := false
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == name {
				seeds = append(seeds, st.Field(i))
				found = true
			}
		}
		if !found {
			t.Fatalf("assumed mutex %q is not a field of T", name)
		}
	}
	var out []string
	LockWalk(info, fn.Body, seeds, func(n ast.Node, held *LockSet, provable bool) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "sink" {
			return true
		}
		if !provable {
			out = append(out, "!unprovable")
			return true
		}
		var names []string
		for _, obj := range held.Held() {
			names = append(names, obj.Name())
		}
		out = append(out, strings.Join(names, ","))
		return true
	})
	return out
}

func checkProbes(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d sinks %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sink %d: held = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLockWalkStraightLine(t *testing.T) {
	got := lockProbe(t, `
	sink()
	t.mu.Lock()
	sink()
	t.rw.Lock()
	sink()
	t.rw.Unlock()
	t.mu.Unlock()
	sink()
	gmu.Lock()
	sink()
	gmu.Unlock()
`)
	checkProbes(t, got, []string{"", "mu", "mu,rw", "", "gmu"})
}

func TestLockWalkDeferKeepsHeld(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	defer t.mu.Unlock()
	sink()
	if cond {
		sink()
		return
	}
	sink()
`)
	checkProbes(t, got, []string{"mu", "mu", "mu"})
}

func TestLockWalkBranchJoin(t *testing.T) {
	got := lockProbe(t, `
	if cond {
		t.mu.Lock()
	}
	sink() // held on one path only: not provable

	if cond {
		t.rw.Lock()
	} else {
		t.rw.Lock()
	}
	sink() // held on both paths
`)
	checkProbes(t, got, []string{"", "rw"})
}

func TestLockWalkTerminatingBranchDropsFromJoin(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	if cond {
		t.mu.Unlock()
		return
	}
	sink() // the returning branch doesn't reach here

	if cond2 {
		t.mu.Unlock()
		panic("bail")
	}
	sink()
`)
	checkProbes(t, got, []string{"mu", "mu"})
}

func TestLockWalkRLockCountsAsHold(t *testing.T) {
	got := lockProbe(t, `
	t.rw.RLock()
	sink()
	t.rw.RUnlock()
	sink()
`)
	checkProbes(t, got, []string{"rw", ""})
}

func TestLockWalkTryLockIsNotAnAcquire(t *testing.T) {
	got := lockProbe(t, `
	if t.mu.TryLock() {
		_ = t.n
	}
	sink()
`)
	checkProbes(t, got, []string{""})
}

func TestLockWalkLoops(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	sink() // held before the loop
	for i := 0; i < k; i++ {
		sink() // body may start after a previous iteration unlocked
		t.mu.Unlock()
		t.mu.Lock()
	}
	sink() // and may end unlocked from the walker's view

	t.rw.Lock()
	for range items {
		sink() // rw never released in body: still held
	}
	sink()
	t.rw.Unlock()

	for range items {
		gmu.Lock()
		sink()
		gmu.Unlock()
	}
	sink() // lock acquired inside the loop doesn't survive it
`)
	checkProbes(t, got, []string{"mu", "", "", "rw", "rw", "gmu", ""})
}

func TestLockWalkClosures(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	go func() {
		sink() // other goroutine: spawner's locks are not held
	}()
	f := func() {
		sink() // runs at an unknown time: empty set
	}
	f()
	defer func() {
		sink() // deferred: inherits the current set
	}()
	func() {
		sink() // immediately invoked: inherits
	}()
	sink()
	t.mu.Unlock()
`)
	checkProbes(t, got, []string{"", "", "mu", "mu", "mu"})
}

func TestLockWalkSwitchSelect(t *testing.T) {
	got := lockProbe(t, `
	switch {
	case cond:
		t.mu.Lock()
	default:
		t.mu.Lock()
	}
	sink() // locked in every case incl. default
	t.mu.Unlock()

	switch k {
	case 1:
		t.rw.Lock()
	case 2:
		t.rw.Lock()
	}
	sink() // no default: the tag may match nothing
	select {
	case <-ch:
		gmu.Lock()
	case ch <- 1:
		gmu.Lock()
	}
	sink() // select always runs exactly one case

	select {
	case <-ch:
		gmu.Unlock()
	default:
	}
	sink()
`)
	checkProbes(t, got, []string{"mu", "", "gmu", ""})
}

func TestLockWalkSwitchTerminatingCases(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	switch {
	case cond:
		t.mu.Unlock()
		return
	case cond2:
		t.mu.Unlock()
		panic("no")
	}
	sink() // every unlocking case terminates; fallthrough path still holds
`)
	checkProbes(t, got, []string{"mu"})
}

func TestLockWalkBreakOutOfSwitchJoinsExit(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	switch k {
	case 1:
		t.mu.Unlock()
		break
	default:
	}
	sink() // the break lands here with mu released
	t.rw.Lock()
	switch {
	case cond:
		if cond2 {
			break
		}
		t.rw.Unlock()
		return
	default:
	}
	sink() // the early break still holds rw
`)
	checkProbes(t, got, []string{"", "rw"})
}

func TestLockWalkBreakOutOfSelectJoinsExit(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	select {
	case <-ch:
		t.mu.Unlock()
		break
	default:
	}
	sink() // the break lands here with mu released
`)
	checkProbes(t, got, []string{""})
}

func TestLockWalkFallthroughEntersNextCase(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	switch k {
	case 1:
		t.mu.Unlock()
		fallthrough
	case 2:
		sink() // entered unlocked through the fallthrough
	default:
		t.mu.Unlock()
		return
	}
	sink() // so the exit of case 2 does not hold mu either
`)
	checkProbes(t, got, []string{"", ""})
}

func TestLockWalkLabeledBreakTargetsOuterSwitch(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
outer:
	switch {
	case cond:
		for range items {
			t.mu.Unlock()
			break outer
		}
		t.mu.Lock()
	default:
	}
	sink() // the labeled break skips the relock after the loop
`)
	checkProbes(t, got, []string{""})
}

func TestLockWalkBreakLeavesLoopJoin(t *testing.T) {
	got := lockProbe(t, `
	for i := 0; i < k; i++ {
		if cond {
			break
		}
		t.mu.Lock()
		sink()
		t.mu.Unlock()
	}
	sink()
`)
	checkProbes(t, got, []string{"mu", ""})
}

func TestLockWalkEmbeddedMutex(t *testing.T) {
	got := lockProbe(t, `
	t.Lock()
	sink()
	t.Unlock()
	sink()
`)
	checkProbes(t, got, []string{"Mutex", ""})
}

func TestLockWalkDottedPathIdentity(t *testing.T) {
	// t.in.imu and a local alias both resolve to the Inner.imu field
	// object: identity is the field, not the instance.
	got := lockProbe(t, `
	t.in.imu.Lock()
	sink()
	in2 := t.in
	in2.imu.Unlock()
	sink()
`)
	checkProbes(t, got, []string{"imu", ""})
}

func TestLockWalkGotoFreezesFunction(t *testing.T) {
	got := lockProbe(t, `
	t.mu.Lock()
	sink()
	if cond {
		goto done
	}
done:
	t.mu.Unlock()
`)
	checkProbes(t, got, []string{"!unprovable"})
}

func TestLockWalkAssumedSeeds(t *testing.T) {
	got := lockProbe(t, `
	sink()
	t.mu.Unlock()
	sink()
`, "mu")
	checkProbes(t, got, []string{"mu", ""})
}

func TestLockWalkAcquirePositionOrdering(t *testing.T) {
	src := `
	t.rw.Lock()
	t.mu.Lock()
	sink()
`
	got := lockProbe(t, src)
	// Held() orders by acquisition position: rw first.
	checkProbes(t, got, []string{"rw,mu"})
}
