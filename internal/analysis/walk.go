package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the flow-sensitive statement walker behind the three
// dataflow analyses: the value intervals of flow.go, the held-mutex sets
// of lockflow.go and the watched monitors of resetflow.go. It walks one
// function body in source order, hands every node to a visitor together
// with the state current at that point, and leaves what the state means,
// and what a join keeps, to the analysis plugged into it: a fact true on
// EVERY path for intervals and locks, on ANY path for monitors.
//
//   - each statement's nodes are visited first, then its effect applies
//     (flowState.transfer), as do an if condition's, a switch tag's and
//     a loop header's, before the branches or the body;
//   - if/else forks the state and joins both exits; a path that ends in
//     return, panic, continue or goto drops out of the join, a break
//     rejoins right after its target statement, and a fallthrough enters
//     the next case;
//   - loops (for/range) are entered with the state weakened to what
//     holds at the start of every iteration (flowState.havoc) and left
//     with that state joined with the loop's breaks (for intervals and
//     locks the join changes nothing, since the body cannot weaken the
//     havocked state further; for monitors a break carries what was
//     watched on its way out);
//   - switch/type-switch join the case exits, plus the entry state when
//     there is no default (the tag may match no case); select joins only
//     case exits (one always runs); a case entered by fallthrough starts
//     from the join of the entry state and the previous case's exit;
//   - a function literal's body is walked as a body of its own, starting
//     from the state flowState.enter derives for how the literal runs.

// flowState is one analysis's facts on one path: a map from the tracked
// objects to what is known about them.
type flowState[S any] interface {
	// clone returns an independent copy for a forked path.
	clone() S
	// join merges the state of another path reaching the same point.
	join(other S) S
	// transfer applies the effect of n (a simple, go or defer statement,
	// one ValueSpec of a var declaration, or an if condition, switch tag
	// or loop header expression) after its nodes have been visited.
	transfer(n ast.Node)
	// havoc weakens the state on entry to loop to what holds at the
	// start of every iteration.
	havoc(loop ast.Stmt)
	// enter returns the state lit's body starts with.
	enter(lit *ast.FuncLit, mode litMode) S
}

// How a function literal encountered in expression position will run.
type litMode int

const (
	exprLater litMode = iota // stored/passed: runs at an unknown time
	exprNow                  // immediately invoked or deferred: runs with the current state
	exprGo                   // spawned: runs on a different goroutine
)

// joinFacts keeps the objects with a fact in both a and b, merged.
func joinFacts[V any](a, b map[types.Object]V, merge func(x, y V) V) map[types.Object]V {
	out := make(map[types.Object]V, min(len(a), len(b)))
	for obj, x := range a {
		if y, ok := b[obj]; ok {
			out[obj] = merge(x, y)
		}
	}
	return out
}

// containsGoto reports whether body (closures included) has a goto; the
// analyses give up on such bodies rather than follow arbitrary jumps.
func containsGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}

type walker[S flowState[S]] struct {
	info  *types.Info
	visit func(n ast.Node, stack []ast.Node, st S) bool

	stack      []ast.Node // ancestry buffer, reused statement by statement
	st         S
	terminated bool       // the current path no longer reaches the next statement
	targets    []*exit[S] // enclosing break targets, innermost last
	label      string     // label of the statement about to be walked
	fall       S          // state a fallthrough carries into the next case
	fell       bool       // fall is set
}

// exit collects the states of the paths that reach one join point.
type exit[S flowState[S]] struct {
	label string
	st    S
	live  bool
}

func walk[S flowState[S]](info *types.Info, body *ast.BlockStmt, st S, visit func(ast.Node, []ast.Node, S) bool) {
	w := &walker[S]{info: info, visit: visit, st: st, stack: make([]ast.Node, 0, 16)}
	w.stmt(body)
}

// reach joins the current path into x, unless the path is dead. x may
// take over the current state: a caller that walks on must clone it.
func (w *walker[S]) reach(x *exit[S]) {
	switch {
	case w.terminated:
	case !x.live:
		x.st, x.live = w.st, true
	default:
		x.st = x.st.join(w.st)
	}
}

// resume continues after the join point x; with no live path into it the
// walk goes on through dead code with the current state.
func (w *walker[S]) resume(x *exit[S]) {
	if x.live {
		w.st, w.terminated = x.st, false
	} else {
		w.terminated = true
	}
}

// visitTree delivers parent and the expression trees under it to the
// visitor, with the state as it stands BEFORE the statement's own effect.
func (w *walker[S]) visitTree(parent ast.Node, exprs ...ast.Expr) {
	if stack := w.root(parent); stack != nil {
		w.exprs(stack, exprs)
	}
}

// root visits a statement-level node and returns the stack its
// expressions extend, or nil when the visitor prunes it.
func (w *walker[S]) root(n ast.Node) []ast.Node {
	stack := append(w.stack[:0], n)
	if !w.visit(n, stack, w.st) {
		return nil
	}
	return stack
}

func (w *walker[S]) exprs(stack []ast.Node, exprs []ast.Expr) {
	for _, e := range exprs {
		if e != nil {
			w.expr(e, stack, exprLater)
		}
	}
}

// expr visits e and its subexpressions; mode says how a function literal
// at e would run.
func (w *walker[S]) expr(e ast.Expr, stack []ast.Node, mode litMode) {
	stack = append(stack, e)
	if !w.visit(e, stack, w.st) {
		return
	}
	switch e := e.(type) {
	case *ast.FuncLit:
		walk(w.info, e.Body, w.st.enter(e, mode), w.visit)
	case *ast.ParenExpr:
		w.expr(e.X, stack, mode)
	case *ast.UnaryExpr:
		w.expr(e.X, stack, exprLater)
	case *ast.StarExpr:
		w.expr(e.X, stack, exprLater)
	case *ast.BinaryExpr:
		w.expr(e.X, stack, exprLater)
		w.expr(e.Y, stack, exprLater)
	case *ast.CallExpr:
		w.call(e, stack, exprNow)
	case *ast.IndexExpr:
		w.expr(e.X, stack, exprLater)
		w.expr(e.Index, stack, exprLater)
	case *ast.IndexListExpr:
		w.expr(e.X, stack, exprLater)
		for _, ix := range e.Indices {
			w.expr(ix, stack, exprLater)
		}
	case *ast.SliceExpr:
		w.expr(e.X, stack, exprLater)
		for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
			if ix != nil {
				w.expr(ix, stack, exprLater)
			}
		}
	case *ast.SelectorExpr:
		w.expr(e.X, stack, exprLater)
	case *ast.TypeAssertExpr:
		w.expr(e.X, stack, exprLater)
	case *ast.KeyValueExpr:
		w.expr(e.Key, stack, exprLater)
		w.expr(e.Value, stack, exprLater)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, stack, exprLater)
		}
	}
}

// call walks a call's function (a literal there runs as mode says) and
// its arguments, which are evaluated here and now.
func (w *walker[S]) call(c *ast.CallExpr, stack []ast.Node, mode litMode) {
	w.expr(c.Fun, stack, mode)
	for _, a := range c.Args {
		w.expr(a, stack, exprLater)
	}
}

func (w *walker[S]) stmt(s ast.Stmt) {
	label := w.label
	w.label = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}

	case *ast.ExprStmt:
		w.visitTree(s, s.X)
		w.st.transfer(s)
		if isPanic(w.info, s.X) {
			w.terminated = true
		}

	case *ast.SendStmt:
		w.visitTree(s, s.Chan, s.Value)

	case *ast.IncDecStmt:
		w.visitTree(s, s.X)
		w.st.transfer(s)

	case *ast.AssignStmt:
		if stack := w.root(s); stack != nil {
			w.exprs(stack, s.Rhs)
			w.exprs(stack, s.Lhs)
		}
		w.st.transfer(s)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.visitTree(s, vs.Values...)
					w.st.transfer(vs)
				}
			}
		}

	// The call of a go or defer statement runs later: a spawned literal on
	// another goroutine, a deferred one at return with (on the paths that
	// matter) the state of this point. Only its function and arguments are
	// evaluated here, so the CallExpr is not visited; and a deferred Unlock
	// is not a release, which is what keeps a lock held through early
	// returns (the lock and interval states ignore both statements).
	case *ast.GoStmt:
		if stack := w.root(s); stack != nil {
			w.call(s.Call, stack, exprGo)
		}
		w.st.transfer(s)

	case *ast.DeferStmt:
		if stack := w.root(s); stack != nil {
			w.call(s.Call, stack, exprNow)
		}
		w.st.transfer(s)

	case *ast.ReturnStmt:
		w.visitTree(s, s.Results...)
		w.terminated = true

	case *ast.BranchStmt:
		// Every branch ends the current path. A break rejoins the flow
		// right after its target statement and a fallthrough enters the
		// next case, so both hand over the state they leave with;
		// continue and goto simply drop out of joins like a return.
		if w.root(s) == nil {
			return
		}
		switch {
		case w.terminated:
		case s.Tok == token.BREAK:
			if x := w.breakTarget(s.Label); x != nil {
				w.reach(x)
				w.st = w.st.clone() // x keeps the state; dead code follows
			}
		case s.Tok == token.FALLTHROUGH:
			w.fall, w.fell = w.st.clone(), true
		}
		w.terminated = true

	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.visitTree(s, s.Cond)
		w.st.transfer(s.Cond)
		base, baseTerm := w.st, w.terminated
		var join exit[S]
		w.st = base.clone()
		w.stmt(s.Body)
		w.reach(&join)
		w.st, w.terminated = base, baseTerm
		if s.Else != nil {
			w.stmt(s.Else)
		}
		w.reach(&join)
		w.resume(&join)

	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.loop(s, label, []ast.Expr{s.Cond}, func() {
			w.stmt(s.Body)
			if s.Post != nil {
				w.stmt(s.Post)
			}
		})

	case *ast.RangeStmt:
		w.loop(s, label, []ast.Expr{s.X, s.Key, s.Value}, func() {
			w.stmt(s.Body)
		})

	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.visitTree(s, s.Tag)
		if s.Tag != nil {
			w.st.transfer(s.Tag)
		}
		w.cases(s.Body, label, hasDefaultClause(s.Body), func(c ast.Stmt) []ast.Stmt {
			cc := c.(*ast.CaseClause)
			w.visitTree(cc, cc.List...)
			return cc.Body
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		w.cases(s.Body, label, hasDefaultClause(s.Body), func(c ast.Stmt) []ast.Stmt {
			cc := c.(*ast.CaseClause)
			w.visitTree(cc)
			return cc.Body
		})

	case *ast.SelectStmt:
		w.visitTree(s)
		if len(s.Body.List) == 0 {
			w.terminated = true // blocks forever
			return
		}
		w.cases(s.Body, label, true, func(c ast.Stmt) []ast.Stmt {
			cc := c.(*ast.CommClause)
			w.visitTree(cc)
			if cc.Comm != nil {
				w.stmt(cc.Comm)
			}
			return cc.Body
		})

	case *ast.LabeledStmt:
		w.label = s.Label.Name
		w.stmt(s.Stmt)
	}
}

// loop walks a for/range statement: its header expressions and body run
// from the havocked entry state; the state after the loop joins that
// entry state (the loop ends at its header) with the loop's breaks.
func (w *walker[S]) loop(s ast.Stmt, label string, header []ast.Expr, body func()) {
	w.st.havoc(s)
	entry, entryTerm := w.st.clone(), w.terminated
	x := &exit[S]{label: label}
	w.targets = append(w.targets, x)
	w.visitTree(s, header...)
	for _, e := range header {
		if e != nil {
			w.st.transfer(e)
		}
	}
	body()
	w.targets = w.targets[:len(w.targets)-1]
	w.st, w.terminated = entry, entryTerm
	w.reach(x)
	w.resume(x)
}

// cases walks each clause of a switch or select from the entry state and
// joins the exits and breaks; exhaustive is false when the construct may
// run no clause at all. clause visits a clause's header on the path that
// selects it and returns its body.
func (w *walker[S]) cases(body *ast.BlockStmt, label string, exhaustive bool, clause func(ast.Stmt) []ast.Stmt) {
	base, baseTerm := w.st, w.terminated
	x := &exit[S]{label: label}
	w.targets = append(w.targets, x)
	for _, c := range body.List {
		w.st, w.terminated = base.clone(), baseTerm
		stmts := clause(c)
		if w.fell {
			w.st, w.fell = w.st.join(w.fall), false
		}
		for _, st := range stmts {
			w.stmt(st)
		}
		w.reach(x)
	}
	w.targets = w.targets[:len(w.targets)-1]
	if !exhaustive {
		w.st, w.terminated = base, baseTerm
		w.reach(x)
	}
	w.resume(x)
}

// breakTarget resolves the statement a break leaves: the innermost
// enclosing for/range/switch/select, or the one carrying label.
func (w *walker[S]) breakTarget(label *ast.Ident) *exit[S] {
	for i := len(w.targets) - 1; i >= 0; i-- {
		if label == nil || w.targets[i].label == label.Name {
			return w.targets[i]
		}
	}
	return nil
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// isPanic reports whether e is a call of the builtin panic.
func isPanic(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := info.ObjectOf(id).(*types.Builtin)
	return builtin
}
