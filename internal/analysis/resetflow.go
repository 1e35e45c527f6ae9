package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"maps"
)

// This file is resetcheck's half of the flow-sensitive walker (walk.go):
// a may-analysis mapping each monitor, keyed by its printed receiver with
// & stripped, to the source it may have last watched. Watch records its
// source; Reset clears the monitor, and so does an escape (the monitor
// passed as an argument or assigned, &m too), also in a go statement,
// which takes effect where it stands. A deferred call runs at return, so
// a defer statement applies only the operands it evaluates: `defer
// m.Reset()` clears nothing the walk sees. A join keeps a monitor watched
// on either path; two different sources merge to a placeholder that,
// like a source built by a call at its Watch, equals none. A loop is
// entered with what the end of its body, read in source order, leaves
// watched, and left with that joined with what its breaks leave. A
// function literal starts with nothing watched, and a function with a
// goto is not walked, as for the lock sets.

// WatchFact is what one monitor may have last watched.
type WatchFact struct {
	Source string   // printed source argument, or what paths disagree on
	Fresh  bool     // equals no source: built by a call at its Watch, or merged
	Loop   ast.Stmt // the loop whose earlier iteration left the fact, if any
}

// Continues reports whether watching next continues f's stream.
func (f WatchFact) Continues(next WatchFact) bool {
	return !f.Fresh && !next.Fresh && f.Source == next.Source
}

// Watched maps each monitor to what it may have last watched.
type Watched map[string]WatchFact

// merge joins src's facts into w.
func (w Watched) merge(src Watched) {
	for key, g := range src {
		if f, ok := w[key]; ok && f.Source != g.Source {
			g.Source, g.Fresh = "(one that differs by path)", true
		}
		if g.Loop == nil {
			g.Loop = w[key].Loop
		}
		w[key] = g
	}
}

// ResetWalk walks one function body, unless it is nil or contains goto,
// tracking the source each monitor may have last watched; isMonitor
// reports whether an expression denotes a monitor. visit receives every
// node in source order, function literals included, with the monitors
// watched before n's statement takes effect; returning false prunes.
func ResetWalk(info *types.Info, body *ast.BlockStmt, isMonitor func(ast.Expr) bool,
	visit func(n ast.Node, watched Watched) bool) {
	if body == nil || containsGoto(body) {
		return
	}
	walk(info, body, resetState{Watched{}, isMonitor}, func(n ast.Node, _ []ast.Node, st resetState) bool {
		return visit(n, st.watched)
	})
}

// WatchCall reports whether call is a Watch on a monitor, with the
// monitor's key in Watched and the fact the call records.
func WatchCall(call *ast.CallExpr, isMonitor func(ast.Expr) bool) (key string, f WatchFact, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Watch" || len(call.Args) == 0 || !isMonitor(sel.X) {
		return "", WatchFact{}, false
	}
	_, fresh := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	return printed(sel.X), WatchFact{Source: printed(call.Args[0]), Fresh: fresh}, true
}

// resetState is resetcheck's flow state.
type resetState struct {
	watched   Watched
	isMonitor func(ast.Expr) bool
}

func (st resetState) clone() resetState {
	st.watched = maps.Clone(st.watched)
	return st
}

func (st resetState) join(o resetState) resetState {
	st = st.clone()
	st.watched.merge(o.watched)
	return st
}

func (st resetState) transfer(n ast.Node) {
	if d, ok := n.(*ast.DeferStmt); ok {
		// The deferred call runs at return, after every node the walk
		// follows: only the operands evaluated here take effect.
		st.transfer(d.Call.Fun)
		for _, a := range d.Call.Args {
			st.transfer(a)
		}
		return
	}
	escape := func(es ...ast.Expr) {
		for _, e := range es {
			if st.isMonitor(e) {
				delete(st.watched, printed(e))
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			escape(n.Rhs...)
		case *ast.CallExpr:
			if key, f, ok := WatchCall(n, st.isMonitor); ok {
				st.watched[key] = f
			} else if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); !ok || !st.isMonitor(sel.X) {
				escape(n.Args...)
			} else if sel.Sel.Name == "Reset" {
				escape(sel.X)
			}
		}
		return true
	})
}

func (st resetState) havoc(loop ast.Stmt) {
	end := resetState{Watched{}, st.isMonitor}
	end.transfer(loop)
	for key, f := range end.watched {
		f.Loop = loop
		end.watched[key] = f
	}
	st.watched.merge(end.watched)
}

func (st resetState) enter(*ast.FuncLit, litMode) resetState {
	return resetState{Watched{}, st.isMonitor}
}

// printed is e as source text, with & stripped: the monitor key.
func printed(e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
