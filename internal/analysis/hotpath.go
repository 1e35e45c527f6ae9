package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The //trnglint:hotpath annotation and its call-graph closure. The
// paper's platform only works because the on-the-fly test engine keeps up
// with the generator at line rate; the repository encodes that dynamically
// as 0 allocs/op benchmark gates, and statically through this annotation:
// a function marked hotpath — the fleet ingest Push/PushWords and shard
// loop, the hwslice absorb/extract kernels, the hwfast word ingest, the
// online tracker Push, the obs counter/gauge fast paths — promises to stay
// allocation-free and latency-predictable on every execution path, and the
// perflint analyzers (noalloc, hotcall, nodefer) plus cmd/escapecheck hold
// it to that.
//
// The promise is closed over the call graph in two steps:
//
//   - Within a package, every function transitively called from a hot body
//     at an unwaived call site is itself hot (HotClosure) — a cold helper
//     cannot silently enter the ingest path just because nobody annotated
//     it.
//   - Across packages, the callee must carry its own //trnglint:hotpath
//     annotation (checked by hotcall against the module-wide HotIndex),
//     be an allowlisted allocation-free stdlib function, or the call site
//     must be waived with //trnglint:alloc <reason> — which documents the
//     hot/cold boundary and stops the closure there.

// HotIndex is the module-wide set of //trnglint:hotpath-annotated
// functions. Drivers that load several packages through one loader
// (cmd/trnglint, cmd/escapecheck, the analysistest harness) populate a
// single index from every loaded package, so a cross-package call from hot
// code resolves the callee's annotation through the shared type
// identities the loader guarantees.
type HotIndex struct {
	hot map[*types.Func]token.Pos
}

// NewHotIndex returns an empty index.
func NewHotIndex() *HotIndex { return &HotIndex{hot: make(map[*types.Func]token.Pos)} }

// AddPackage records every //trnglint:hotpath annotation found on the
// function and method declarations of one package's files.
func (ix *HotIndex) AddPackage(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			_, pos, ok := directiveArg(fd.Doc, "hotpath")
			if !ok {
				continue
			}
			if fn, _ := info.Defs[fd.Name].(*types.Func); fn != nil {
				ix.hot[fn] = pos
			}
		}
	}
}

// IsHot reports whether fn carries a //trnglint:hotpath annotation.
// Generic instantiations resolve through their origin, so a call to
// Map[uint64] is hot exactly when Map's declaration is annotated.
func (ix *HotIndex) IsHot(fn *types.Func) bool {
	if ix == nil || fn == nil {
		return false
	}
	_, ok := ix.hot[fn.Origin()]
	return ok
}

// Len returns the number of annotated functions in the index.
func (ix *HotIndex) Len() int {
	if ix == nil {
		return 0
	}
	return len(ix.hot)
}

// HotClosure returns the hot functions declared in the unit's package:
// those annotated //trnglint:hotpath plus every same-package function
// transitively called from a hot body at an unwaived call site. A call
// site waived with //trnglint:alloc (or //trnglint:allow hotcall) marks a
// deliberate hot/cold boundary and is not followed; cross-package and
// dynamically-dispatched callees are never absorbed — the hotcall analyzer
// checks those against the module-wide index instead. Function literals
// are not descended into: the literal itself is a noalloc finding, and its
// body runs on whatever schedule captures it.
func HotClosure(u *Unit, dirs *Directives, ix *HotIndex) map[*types.Func]*ast.FuncDecl {
	list, decls := FuncDecls(u.Files, u.Info)
	hot := make(map[*types.Func]*ast.FuncDecl)
	var work []*types.Func
	for _, d := range list {
		if ix.IsHot(d.Fn) {
			hot[d.Fn] = d.Decl
			work = append(work, d.Fn)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(hot[fn].Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if dirs.Waived(u.Fset, call.Pos(), "hotcall") {
				return true
			}
			callee := CalleeFunc(u.Info, call)
			if callee == nil {
				return true
			}
			callee = callee.Origin()
			fd, ok := decls[callee]
			if !ok {
				return true
			}
			if _, seen := hot[callee]; !seen {
				hot[callee] = fd
				work = append(work, callee)
			}
			return true
		})
	}
	return hot
}

// FuncLabel renders a hot function's name for diagnostics: Method for
// receiver-less functions, Type.Method for methods (pointer receivers
// included), matching how the annotation sites read in the source.
func FuncLabel(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
