// Package determinism enforces bit-reproducibility in packages marked
// //trnglint:deterministic: every result there must be a pure function of
// the inputs and seeds, because the repository's differential suites
// compare such packages byte-for-byte against golden models (and against
// their own serial runs at other worker counts). Four leak classes are
// flagged:
//
//   - wall-clock reads (time.Now/Since/Until/After/Tick/NewTimer/...)
//   - the process-global math/rand generators (seeded rand.New(...) and
//     friends stay allowed — they are deterministic functions of the seed)
//   - ranging over a map, whose iteration order is deliberately random
//   - appends to variables captured by a `go func(){...}()` literal,
//     whose completion order the scheduler owns
//
// Intentional wall-clock dependence (a watchdog, a benchmark clock) is
// waived in place with //trnglint:allow determinism <reason>.
package determinism

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags nondeterminism sources inside //trnglint:deterministic
// packages.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global math/rand use, map-order iteration " +
		"and unsynchronized goroutine appends in bit-reproducible packages",
	Run: run,
}

// wallClock lists the time package functions whose results (or firing
// order) depend on the wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
	"Sleep": true,
}

// seededRand lists the math/rand constructors that are pure functions of
// their seed and therefore allowed; every other package-level function of
// math/rand draws from the shared global generator.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.Directives.HasMarker("deterministic") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.GoStmt:
				checkGo(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to time.%s in a deterministic package: results must not depend on the wall clock; "+
					"inject the clock or waive with //trnglint:allow determinism <reason>", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRand[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to the process-global %s.%s in a deterministic package: "+
					"use a seeded rand.New(rand.NewSource(seed)) so every run reproduces",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); isMap {
		pass.Reportf(rs.Pos(),
			"range over a map in a deterministic package: iteration order is randomized; "+
				"iterate sorted keys or waive with //trnglint:allow determinism <reason>")
	}
}

// checkGo flags `shared = append(shared, ...)` inside a `go func(){...}`
// literal when shared is captured from the enclosing function: the
// goroutine completion order decides the element order. Index-addressed
// writes (results[i] = r) stay allowed — that is the deterministic
// fan-out idiom the core runner uses.
func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || len(call.Args) == 0 || i >= len(as.Lhs) {
				continue
			}
			dst, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.ObjectOf(dst)
			if obj == nil {
				continue
			}
			if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
				pass.Reportf(as.Pos(),
					"append to %q captured by a go-statement literal: element order depends on goroutine "+
						"scheduling; write to a per-index slot or collect through a channel", dst.Name)
			}
		}
		return true
	})
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}
