// Package atomicmix enforces the platform's atomic-publish discipline: a
// memory location either belongs to the atomic world or the plain world,
// never both. The fleet's lock-free paths (Stream.detached, the staging
// slot counter, per-stream accounting) are correct only because every
// access goes through sync/atomic — one plain load of a flag that is
// atomically stored elsewhere is exactly the unsynchronized fast-path
// read behind the fleet's original detach race. Two rules:
//
//  1. A field of an atomic.* type (atomic.Bool, atomic.Int64, ...) may
//     only be accessed by calling its methods or taking its address;
//     copying or overwriting the value bypasses the atomic protocol
//     (and smuggles the internal state across goroutines).
//
//  2. A struct field that is anywhere in the package accessed through a
//     sync/atomic function (atomic.LoadInt32(&s.n), atomic.AddInt64,
//     ...) is an atomic location: every plain read or write of the same
//     field is a finding. Locals are exempt — the
//     add-atomically-then-read-after-join worker-counter idiom is
//     correct and common.
//
// Copies of structs that contain atomics are go vet -copylocks's finding,
// not this package's: vet sees dereference copies, assignments, by-value
// parameters and receivers, returns, range variables and by-value call
// arguments, including arguments boxed into interface{} parameters. vet
// keys on the noCopy marker, which atomic.Value lacks, so a copy of a
// struct whose only atomic is an atomic.Value goes unreported; the module
// uses no atomic.Value. vet also overlaps rule 1's field copies, but not
// its overwrite (s.flag = atomic.Bool{}) or rule 2.
//
// Intentional exceptions are waived in place with
// //trnglint:allow atomicmix <reason>.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags plain access to atomic locations.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "flag plain loads/stores of fields accessed via sync/atomic (or of " +
		"atomic.* type)",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	mixed := collectAtomicFields(pass)
	for _, f := range pass.Files {
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				checkFieldAccess(pass, mixed, sel, stack)
			}
			return true
		})
	}
	return nil, nil
}

// collectAtomicFields finds every struct field the package accesses
// through a sync/atomic function, by scanning for atomic.XxxInt32(&s.f,
// ...) style calls.
func collectAtomicFields(pass *analysis.Pass) map[types.Object]bool {
	mixed := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // methods on atomic.* types are rule 1's turf
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if obj := analysis.FieldObjectOf(pass.TypesInfo, sel); obj != nil {
					mixed[obj] = true
				}
			}
			return true
		})
	}
	return mixed
}

// checkFieldAccess applies rules 1 and 2 to one field selection.
func checkFieldAccess(pass *analysis.Pass, mixed map[types.Object]bool, sel *ast.SelectorExpr, stack []ast.Node) {
	field := analysis.FieldObjectOf(pass.TypesInfo, sel)
	if field == nil {
		return
	}
	isAtomicTyped := isAtomicType(field.Type())
	if !isAtomicTyped && !mixed[field] {
		return
	}
	// Allowed contexts: calling a method on the field (s.flag.Load() —
	// the parent selector resolves to a method with this selection as
	// receiver) and taking its address (&s.n for an atomic call or a
	// pointer hand-off).
	if len(stack) >= 2 {
		switch parent := stack[len(stack)-2].(type) {
		case *ast.SelectorExpr:
			if parent.X == sel {
				if _, ok := pass.ObjectOf(parent.Sel).(*types.Func); ok {
					return
				}
			}
		case *ast.UnaryExpr:
			if parent.Op == token.AND {
				return
			}
		}
	}
	if isAtomicTyped {
		pass.Reportf(sel.Sel.Pos(),
			"%s has atomic type %s: copying or overwriting the value bypasses the atomic protocol — "+
				"use its methods, or waive with //trnglint:allow atomicmix <reason>",
			field.Name(), typeShortName(field.Type()))
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"%s is accessed via sync/atomic elsewhere in this package: this plain access races with those — "+
			"use the atomic API here too, or waive with //trnglint:allow atomicmix <reason>",
		field.Name())
}

// isAtomicType reports whether t is one of the sync/atomic value types
// (Bool, Int32, Int64, Uint32, Uint64, Uintptr, Pointer[T], Value).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func typeShortName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}
