package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// This file is the interval analysis's half of the flow-sensitive walker
// (walk.go): the state is a value interval per refined local variable, and
// interval.go evaluates expressions under it. Precision policy, chosen so a
// refinement is NEVER narrower than the true value set:
//
//   - straight-line assignments, compound assignments, ++/-- and var
//     declarations refine;
//   - a join keeps a refinement only if every path into it has one, and
//     then the union of the intervals;
//   - loops (for/range) invalidate everything assigned anywhere in the
//     loop before the body is walked, and leave it invalidated after;
//   - function literals are walked as independent bodies with fresh
//     environments;
//   - variables captured and assigned by a closure, or address-taken, are
//     never refined (the mutation site is invisible to straight-line
//     flow); a function containing goto is walked with refinement
//     disabled entirely;
//   - package-level variables are never refined (any call may write
//     them).

// FlowVisitor receives every statement and expression node of the walked
// body in source order, except the call of a go or defer statement, which
// runs elsewhere (its function and arguments are visited). stack holds
// the ancestry within the current statement (statement first, n last) and
// is only valid during the call; ev evaluates expressions under the
// environment at the statement's entry. Returning false prunes the
// subtree below n.
type FlowVisitor func(n ast.Node, stack []ast.Node, ev *Evaluator) bool

// FlowWalk walks one function body with flow-sensitive intervals.
// Function literals encountered inside are walked as independent bodies
// with fresh environments.
func FlowWalk(pkg *types.Package, info *types.Info, body *ast.BlockStmt, visit FlowVisitor) {
	walk(info, body, newIntervals(pkg, info, body), func(n ast.Node, stack []ast.Node, st intervals) bool {
		return visit(n, stack, &Evaluator{info: info, env: st.env})
	})
}

// intervals is the interval analysis's flow state.
type intervals struct {
	env map[types.Object]Interval
	*refinable
}

// refinable is what one body's walk may refine, fixed up front.
type refinable struct {
	pkg      *types.Package
	info     *types.Info
	noRefine map[types.Object]bool
	frozen   bool // body contains goto: no refinement at all
}

// newIntervals starts a body's walk with an empty environment, having
// blacklisted the variables whose value can change behind the
// straight-line walk's back.
func newIntervals(pkg *types.Package, info *types.Info, body *ast.BlockStmt) intervals {
	r := &refinable{pkg: pkg, info: info, noRefine: make(map[types.Object]bool), frozen: containsGoto(body)}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.distrust(n.X)
			}
		case *ast.SelectorExpr:
			// A pointer-receiver method call or method value takes the
			// receiver's address implicitly: m.widen() can mutate m
			// exactly like (&m).widen() would, so the receiver is as
			// untrustworthy as an explicitly address-taken variable.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				recv := sel.Obj().Type().(*types.Signature).Recv()
				_, ptrRecv := recv.Type().Underlying().(*types.Pointer)
				if ptrRecv || sel.Indirect() {
					r.distrust(n.X)
				}
			}
		case *ast.FuncLit:
			for obj := range r.assignedIn(n) {
				r.noRefine[obj] = true
			}
		}
		return true
	})
	return intervals{env: make(map[types.Object]Interval), refinable: r}
}

func (r *refinable) distrust(e ast.Expr) {
	if obj := r.object(e); obj != nil {
		r.noRefine[obj] = true
	}
}

// object resolves a simple identifier (an assignment target).
func (r *refinable) object(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return r.info.ObjectOf(id)
	}
	return nil
}

// assignedIn collects every object assigned (in any form) within n.
func (r *refinable) assignedIn(n ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(e ast.Expr) {
		if obj := r.object(e); obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		case *ast.RangeStmt:
			if n.Key != nil {
				record(n.Key)
			}
			if n.Value != nil {
				record(n.Value)
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				record(name)
			}
		}
		return true
	})
	return out
}

func (st intervals) clone() intervals {
	return intervals{env: maps.Clone(st.env), refinable: st.refinable}
}

func (st intervals) join(o intervals) intervals {
	return intervals{env: joinFacts(st.env, o.env, Interval.Join), refinable: st.refinable}
}

func (st intervals) havoc(loop ast.Stmt) {
	for obj := range st.assignedIn(loop) {
		delete(st.env, obj)
	}
}

func (st intervals) enter(lit *ast.FuncLit, _ litMode) intervals {
	return newIntervals(st.pkg, st.info, lit.Body)
}

// set records a refinement for obj, provided obj is a local variable the
// walk can trust.
func (st intervals) set(obj types.Object, iv Interval) {
	if obj == nil || st.frozen || st.noRefine[obj] {
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Name() == "_" {
		return
	}
	if st.pkg != nil && obj.Parent() == st.pkg.Scope() {
		return // package-level: any call may rewrite it
	}
	if typeInterval(obj.Type()).contains(iv) && iv.contains(typeInterval(obj.Type())) {
		delete(st.env, obj) // no information beyond the type
		return
	}
	st.env[obj] = iv
}

func (st intervals) clear(obj types.Object) {
	if obj != nil {
		delete(st.env, obj)
	}
}

func (st intervals) transfer(n ast.Node) {
	ev := Evaluator{info: st.info, env: st.env}
	switch s := n.(type) {
	case *ast.IncDecStmt:
		if obj := st.object(s.X); obj != nil {
			op := token.ADD
			if s.Tok == token.DEC {
				op = token.SUB
			}
			st.set(obj, ev.evalBinary(op, ev.Eval(s.X), Interval{1, 1}, obj.Type()))
		}

	case *ast.AssignStmt:
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			if len(s.Lhs) == len(s.Rhs) {
				// Evaluate every RHS under the pre-state, then commit —
				// parallel assignment semantics.
				vals := make([]Interval, len(s.Rhs))
				for i, r := range s.Rhs {
					vals[i] = ev.Eval(r)
				}
				for i, lhs := range s.Lhs {
					if obj := st.object(lhs); obj != nil {
						st.set(obj, fitToType(vals[i], obj.Type()))
					}
				}
			} else {
				for _, lhs := range s.Lhs {
					st.clear(st.object(lhs))
				}
			}
		default: // op=
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				if obj := st.object(s.Lhs[0]); obj != nil {
					op := compoundOp(s.Tok)
					if op == token.ILLEGAL {
						st.clear(obj)
					} else {
						st.set(obj, ev.evalBinary(op, ev.Eval(s.Lhs[0]), ev.Eval(s.Rhs[0]), obj.Type()))
					}
				}
			}
		}

	case *ast.ValueSpec:
		switch {
		case len(s.Values) == len(s.Names):
			for i, name := range s.Names {
				if obj := st.info.ObjectOf(name); obj != nil {
					st.set(obj, fitToType(ev.Eval(s.Values[i]), obj.Type()))
				}
			}
		case len(s.Values) == 0:
			// Declared without initializer: the zero value.
			for _, name := range s.Names {
				if obj := st.info.ObjectOf(name); obj != nil {
					if typeInterval(obj.Type()).contains(Interval{0, 0}) {
						st.set(obj, Interval{0, 0})
					}
				}
			}
		default:
			for _, name := range s.Names {
				st.clear(st.info.ObjectOf(name))
			}
		}
	}
}

// compoundOp maps an op= token to its binary operator.
func compoundOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	}
	return token.ILLEGAL
}
