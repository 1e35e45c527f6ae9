package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// This file is the lock-set analysis's half of the flow-sensitive walker
// (walk.go): the state is the set of mutexes provably held at each program
// point, and the walker's joins keep a mutex only if every path into the
// join holds it. What is particular to locks:
//
//   - x.mu.Lock() / RLock() adds the mutex to the set; Unlock() / RUnlock()
//     removes it; defer x.mu.Unlock() keeps it held through every return
//     (including early ones), so the lock/check/unlock-and-return idiom
//     proves clean;
//   - loops are entered and left with the entry set minus every mutex
//     released anywhere in the body (a later iteration may begin after that
//     release), and locks acquired inside a loop never survive it;
//   - a function literal spawned by go or stored for later runs with an
//     EMPTY set (the spawner's locks are not its locks), while deferred and
//     immediately-invoked literals inherit the current set;
//   - goto makes the whole function unanalyzable: the walker visits every
//     node with an empty set and reports nothing through Provable, so
//     analyzers can choose silence over false findings.
//
// Lock identity is the *types.Var of the mutex — the struct field or the
// (package-level or local) variable — NOT the instance: p.mu and s.pool.mu
// are the same lock to this analysis. That deliberately conflates distinct
// instances of one type (two Pools "share" Pool.mu here), which is the
// standard static-analysis compromise: it keeps the guardedby proof
// independent of aliasing, at the cost of accepting a lock on the wrong
// instance. The fleet's locks are one-instance-per-owner, so nothing is
// lost there; code that locks sibling instances by rank needs a waiver.

// LockSet is the set of mutexes held at one program point.
type LockSet struct {
	held map[types.Object]token.Pos
}

// Holds reports whether the mutex identified by obj is in the set.
func (s *LockSet) Holds(obj types.Object) bool {
	if s == nil || obj == nil {
		return false
	}
	_, ok := s.held[obj]
	return ok
}

// Empty reports whether no mutex is held.
func (s *LockSet) Empty() bool { return s == nil || len(s.held) == 0 }

// Held returns the held mutexes ordered by acquisition position (ties by
// name), so diagnostics and lock-graph edges are deterministic.
func (s *LockSet) Held() []types.Object {
	if s == nil {
		return nil
	}
	out := make([]types.Object, 0, len(s.held))
	for obj := range s.held {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := s.held[out[i]], s.held[out[j]]
		if pi != pj {
			return pi < pj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// LockVisitor receives every node of the walked body in source order with
// the lock set current at that point, except the call of a go or defer
// statement, which runs elsewhere (its function and arguments are
// visited). The set it sees at a Lock() call is the PRE-acquire set (what
// lockorder needs for graph edges). provable is false when the enclosing
// function contains goto — the set is then always empty and analyzers
// should not report on it. Returning false prunes the subtree below n.
type LockVisitor func(n ast.Node, held *LockSet, provable bool) bool

// LockWalk walks one function body maintaining the flow-sensitive lock
// set. assumed seeds the set (the //trnglint:holds precondition); its
// members carry token.NoPos.
func LockWalk(info *types.Info, body *ast.BlockStmt, assumed []types.Object, visit LockVisitor) {
	st := lockState{info: info, held: make(map[types.Object]token.Pos), frozen: containsGoto(body)}
	for _, obj := range assumed {
		if obj != nil && !st.frozen {
			st.held[obj] = token.NoPos
		}
	}
	walk(info, body, st, func(n ast.Node, _ []ast.Node, st lockState) bool {
		return visit(n, &LockSet{held: st.held}, !st.frozen)
	})
}

// lockState is the lock analysis's flow state: each held mutex with the
// position of its acquisition.
type lockState struct {
	held   map[types.Object]token.Pos
	info   *types.Info
	frozen bool // body contains goto: empty set, provable=false
}

func (st lockState) clone() lockState {
	st.held = maps.Clone(st.held)
	return st
}

// join keeps the mutexes held on both paths, at this path's acquisition.
func (st lockState) join(o lockState) lockState {
	st.held = joinFacts(st.held, o.held, func(p, _ token.Pos) token.Pos { return p })
	return st
}

func (st lockState) transfer(n ast.Node) {
	s, ok := n.(*ast.ExprStmt)
	if !ok || st.frozen {
		return
	}
	if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
		if obj, acquire, ok := LockOpOf(st.info, call); ok {
			if acquire {
				st.held[obj] = call.Pos()
			} else {
				delete(st.held, obj)
			}
		}
	}
}

// havoc releases every mutex a non-deferred Unlock anywhere in the loop
// may release, so no iteration (including the zeroth and the post-release
// tail of a later one) is credited with a lock it might not hold. Nested
// function literals are skipped: their releases happen on their own
// activation, not the loop's iterations.
func (st lockState) havoc(loop ast.Stmt) {
	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if obj, acquire, ok := LockOpOf(st.info, n); ok && !acquire {
				delete(st.held, obj)
			}
		}
		return true
	})
}

// enter starts a literal run here and now (immediate call, defer) with the
// current set; a stored or spawned one runs at another time or on another
// goroutine, and starts empty.
func (st lockState) enter(lit *ast.FuncLit, mode litMode) lockState {
	inner := lockState{info: st.info, held: make(map[types.Object]token.Pos), frozen: st.frozen || containsGoto(lit.Body)}
	if mode == exprNow && !inner.frozen {
		inner.held = maps.Clone(st.held)
	}
	return inner
}

// ---- lock identity ----

// LockOpOf classifies call as a mutex acquire (Lock/RLock) or release
// (Unlock/RUnlock) on a sync.Mutex or sync.RWMutex and returns the lock's
// identity object. TryLock/TryRLock are deliberately NOT acquires — their
// success is conditional and this walker does not track booleans. RLock
// counts as a full hold: the engine does not yet distinguish read from
// write accesses, which is conservative for readers and documented as a
// limitation for writers under RLock.
func LockOpOf(info *types.Info, call *ast.CallExpr) (obj types.Object, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	fn, _ := info.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return nil, false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isSyncMutexType(recv.Type()) {
		return nil, false, false
	}
	obj = MutexObject(info, sel)
	if obj == nil {
		return nil, false, false
	}
	return obj, acquire, true
}

// MutexObject resolves the identity object of the mutex a method selector
// (x.mu.Lock's x.mu, or t.Lock through an embedded Mutex) denotes: the
// innermost field *types.Var, or the variable itself for plain mutex
// variables. nil when the expression has no stable identity (map element,
// function result, ...).
func MutexObject(info *types.Info, methodSel *ast.SelectorExpr) types.Object {
	// Through an embedded mutex (t.Lock()) the selection's index path ends
	// with the method; the field step before it is the identity.
	if s, ok := info.Selections[methodSel]; ok && s.Kind() == types.MethodVal {
		if idx := s.Index(); len(idx) > 1 {
			return fieldByIndexPath(s.Recv(), idx[:len(idx)-1])
		}
	}
	return mutexExprObject(info, methodSel.X)
}

// mutexExprObject resolves the identity of a mutex-valued expression.
func mutexExprObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return fieldByIndexPath(s.Recv(), s.Index())
		}
		// Package-qualified variable (pkg.Mu).
		if v, ok := info.ObjectOf(e.Sel).(*types.Var); ok {
			return v
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return mutexExprObject(info, e.X)
		}
	case *ast.StarExpr:
		return mutexExprObject(info, e.X)
	}
	return nil
}

// fieldByIndexPath walks a selection index path from a receiver type to
// the final field's object.
func fieldByIndexPath(t types.Type, idx []int) types.Object {
	var fld *types.Var
	for _, i := range idx {
		t = derefType(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return nil
		}
		fld = st.Field(i)
		t = fld.Type()
	}
	if fld == nil {
		return nil
	}
	return fld
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isSyncMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	t = derefType(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
