package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Concurrency-contract annotations. Unlike the line waivers in
// directive.go, these attach to declarations and carry meaning for the
// conclint analyzers (guardedby, lockorder):
//
//	type Pool struct {
//		mu sync.Mutex
//		//trnglint:guardedby mu
//		closed bool
//	}
//
//	//trnglint:holds pushMu
//	func (s *Stream) flushStaged() { ... }
//
// The mutex path is resolved relative to the annotated declaration: for a
// field, relative to its enclosing struct (dotted paths such as pool.mu
// reach through struct- or pointer-to-struct-typed fields); for a method,
// relative to the receiver type; package-level variables are the fallback
// for the first path element. The resolved identity is the mutex field's
// *types.Var — the same object LockWalk keys its lock sets on.

// GuardSpec records one //trnglint:guardedby annotation.
type GuardSpec struct {
	Field types.Object // the guarded field
	Mutex types.Object // resolved lock identity
	Path  string       // the annotation's spelling, for diagnostics
	Pos   token.Pos    // the annotated declaration's position
}

// HoldsSpec records one //trnglint:holds annotation.
type HoldsSpec struct {
	Fn    *types.Func
	Mutex types.Object
	Path  string
	Pos   token.Pos
}

// ConcAnnotations is the parsed set of concurrency annotations of one
// package.
type ConcAnnotations struct {
	// Guards maps a guarded field's object to its spec.
	Guards map[types.Object]*GuardSpec
	// Holds maps a function's object to its lock preconditions.
	Holds map[*types.Func][]*HoldsSpec
}

// GuardOf returns the guard spec for the field object, or nil.
func (c *ConcAnnotations) GuardOf(field types.Object) *GuardSpec {
	if c == nil || field == nil {
		return nil
	}
	return c.Guards[field]
}

// HoldsOf returns the lock preconditions of fn (nil when unannotated).
func (c *ConcAnnotations) HoldsOf(fn *types.Func) []*HoldsSpec {
	if c == nil || fn == nil {
		return nil
	}
	return c.Holds[fn]
}

// AssumedLocks returns the mutex identities fn's //trnglint:holds
// annotations declare, for seeding LockWalk.
func (c *ConcAnnotations) AssumedLocks(fn *types.Func) []types.Object {
	specs := c.HoldsOf(fn)
	if len(specs) == 0 {
		return nil
	}
	out := make([]types.Object, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.Mutex)
	}
	return out
}

// CollectConcAnnotations parses every guardedby/holds annotation in the
// pass's files. Malformed annotations (unknown path, target not a mutex,
// missing argument) are themselves reported through report, so a typo in
// a contract is a finding rather than a silently vacuous proof; pass nil
// to skip reporting (the non-owning analyzers do, so each bad annotation
// is diagnosed exactly once, by guardedby).
func CollectConcAnnotations(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(pos token.Pos, format string, args ...any)) *ConcAnnotations {
	if report == nil {
		report = func(token.Pos, string, ...any) {}
	}
	c := &ConcAnnotations{
		Guards: make(map[types.Object]*GuardSpec),
		Holds:  make(map[*types.Func][]*HoldsSpec),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				if decl.Tok != token.TYPE {
					continue
				}
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					c.collectStruct(pkg, info, st, report)
				}
			case *ast.FuncDecl:
				c.collectFunc(pkg, info, decl, report)
			}
		}
	}
	return c
}

// directiveArg extracts the argument of "//trnglint:<verb> <arg...>" from
// a comment group, returning the directive comment's position.
func directiveArg(cg *ast.CommentGroup, verb string) (arg string, pos token.Pos, ok bool) {
	if cg == nil {
		return "", token.NoPos, false
	}
	want := directivePrefix + verb
	for _, cm := range cg.List {
		if cm.Text != want && !strings.HasPrefix(cm.Text, want+" ") {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(cm.Text, want))
		return rest, cm.Pos(), true
	}
	return "", token.NoPos, false
}

func (c *ConcAnnotations) collectStruct(pkg *types.Package, info *types.Info, st *ast.StructType, report func(token.Pos, string, ...any)) {
	for _, field := range st.Fields.List {
		path, pos, ok := directiveArg(field.Doc, "guardedby")
		if !ok {
			path, pos, ok = directiveArg(field.Comment, "guardedby")
		}
		if !ok {
			continue
		}
		// Report malformed annotations at the field, not the comment, so
		// the finding lands on the declaration it fails to protect.
		pos = field.Pos()
		if path == "" {
			report(pos, "guardedby needs a mutex path (e.g. //trnglint:guardedby mu)")
			continue
		}
		if len(field.Names) == 0 {
			report(pos, "guardedby on an embedded field is not supported; name the field")
			continue
		}
		for _, name := range field.Names {
			fieldObj := info.Defs[name]
			if fieldObj == nil {
				continue
			}
			// The enclosing struct is the field's parent type; resolve the
			// path against it so sibling fields (mu) and dotted reaches
			// (pool.mu) both work.
			owner := fieldOwnerType(fieldObj)
			mu := resolveMutexPath(pkg, owner, path)
			if mu == nil {
				report(pos, "guardedby %s: cannot resolve to a sync.Mutex/RWMutex (sibling field, dotted field path, or package-level mutex)", path)
				continue
			}
			c.Guards[fieldObj] = &GuardSpec{Field: fieldObj, Mutex: mu, Path: path, Pos: pos}
		}
	}
}

func (c *ConcAnnotations) collectFunc(pkg *types.Package, info *types.Info, decl *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	path, pos, ok := directiveArg(decl.Doc, "holds")
	if !ok {
		return
	}
	pos = decl.Name.Pos()
	fn, _ := info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return
	}
	if path == "" {
		report(pos, "holds needs a mutex path (e.g. //trnglint:holds mu)")
		return
	}
	var recvType types.Type
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		recvType = recv.Type()
	}
	for _, one := range strings.Fields(path) {
		mu := resolveMutexPath(pkg, recvType, one)
		if mu == nil {
			report(pos, "holds %s: cannot resolve to a sync.Mutex/RWMutex (receiver field, dotted field path, or package-level mutex)", one)
			continue
		}
		c.Holds[fn] = append(c.Holds[fn], &HoldsSpec{Fn: fn, Mutex: mu, Path: one, Pos: pos})
	}
}

// fieldOwnerType returns the struct type a field object belongs to, found
// via the type checker's recorded parent scope... fields have no scope, so
// instead we record the owner by searching the package for the named type
// whose underlying struct contains the object. Package-local structs only;
// anonymous structs fall back to nil (path then resolves against package
// scope only).
func fieldOwnerType(field types.Object) types.Type {
	pkg := field.Pkg()
	if pkg == nil {
		return nil
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn.Type()
			}
		}
	}
	return nil
}

// resolveMutexPath resolves a dotted annotation path to a mutex identity:
// the first element is a field of base (embedding included) or a
// package-level variable; each later element is a field of the previous
// one's struct type. The final object must be (a pointer to) sync.Mutex
// or sync.RWMutex.
func resolveMutexPath(pkg *types.Package, base types.Type, path string) types.Object {
	parts := strings.Split(path, ".")
	var cur types.Object
	var curType types.Type
	// First element: field of base, else package-level var.
	if base != nil {
		if obj, _, _ := types.LookupFieldOrMethod(base, true, pkg, parts[0]); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				cur, curType = v, v.Type()
			}
		}
	}
	if cur == nil {
		if v, ok := pkg.Scope().Lookup(parts[0]).(*types.Var); ok {
			cur, curType = v, v.Type()
		}
	}
	if cur == nil {
		return nil
	}
	for _, part := range parts[1:] {
		obj, _, _ := types.LookupFieldOrMethod(curType, true, pkg, part)
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			return nil
		}
		cur, curType = v, v.Type()
	}
	if !isSyncMutexType(curType) {
		return nil
	}
	return cur
}

// FuncDecl pairs a function or method declaration with the object it
// declares.
type FuncDecl struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
}

// FuncDecls indexes the function and method declarations in files that
// have a body: in source order, and by the object each declares (for
// resolving an intra-package callee to its body).
func FuncDecls(files []*ast.File, info *types.Info) ([]FuncDecl, map[*types.Func]*ast.FuncDecl) {
	var list []FuncDecl
	byFunc := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := info.Defs[fd.Name].(*types.Func); fn != nil {
				list = append(list, FuncDecl{fn, fd})
				byFunc[fn] = fd
			}
		}
	}
	return list, byFunc
}

// CalleeFunc resolves the *types.Func a call expression invokes (methods
// and plain functions; nil for builtins, conversions, and calls through
// function-typed values).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// FieldObjectOf resolves the struct-field object a selector expression
// reads or writes (s.drained → Stream.drained), reaching through pointers
// and embedded fields; nil when e is not a field selection.
func FieldObjectOf(info *types.Info, e *ast.SelectorExpr) types.Object {
	if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
		return fieldByIndexPath(s.Recv(), s.Index())
	}
	return nil
}
