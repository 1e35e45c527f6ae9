// Package errdrop enforces the platform's partial-result error contract:
// source reads and monitor runs return data *and* a typed error, and the
// error is load-bearing — a trng.Source read can fail transiently
// (trng.ErrTransient, no bit consumed) and Monitor.Watch returns the
// already-completed reports alongside a *core.SourceError. Discarding
// such an error with `_` or an expression statement silently converts an
// operational fault into corrupt statistics, which is precisely the
// implementation defect an on-line tester must not have. The analyzer
// flags discards of errors from:
//
//   - ReadBit() (byte, error) methods — the bitstream.BitReader contract
//     every trng.Source implements
//   - bitstream.ReadAll
//   - Watch/Feed on a Monitor, Run on a Supervisor or SequenceRunner
//
// A documented intentional discard is waived in place with
// //trnglint:allow errdrop <reason>.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags discarded errors from source reads and monitor runs.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "flag discarded errors from trng.Source reads and Monitor/Supervisor " +
		"runs, whose partial-result contract makes dismissal a correctness bug",
	Run: run,
}

// monitorMethods maps receiver type name to the error-bearing methods of
// the monitoring contract.
var monitorMethods = map[string]map[string]bool{
	"Monitor":        {"Watch": true, "Feed": true},
	"Supervisor":     {"Run": true},
	"SequenceRunner": {"Run": true},
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name := contractCall(pass, call); name != "" {
						pass.Reportf(call.Pos(),
							"result of %s dropped entirely: its error reports a failed or partial read — "+
								"handle it or waive with //trnglint:allow errdrop <reason>", name)
					}
				}
			case *ast.GoStmt:
				reportSpawn(pass, n.Call, "go")
			case *ast.DeferStmt:
				reportSpawn(pass, n.Call, "defer")
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func reportSpawn(pass *analysis.Pass, call *ast.CallExpr, kw string) {
	if name := contractCall(pass, call); name != "" {
		pass.Reportf(call.Pos(),
			"%s %s discards the call's error — handle it inside a wrapper or waive with "+
				"//trnglint:allow errdrop <reason>", kw, name)
	}
}

// checkAssign flags `x, _ := contractCall(...)` — a blank identifier in
// the error position of a tracked call.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(as.Lhs) < 2 {
		return
	}
	name := contractCall(pass, call)
	if name == "" {
		return
	}
	errIdx := errResultIndex(pass, call)
	if errIdx < 0 || errIdx >= len(as.Lhs) {
		return
	}
	if id, ok := as.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(id.Pos(),
			"error from %s discarded with _: the call returns partial results plus a typed error — "+
				"handle it or waive with //trnglint:allow errdrop <reason>", name)
	}
}

// contractCall classifies the callee; the returned display name is empty
// when the call is outside the enforced contract.
func contractCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		recvName := namedTypeName(recv.Type())
		switch {
		case fn.Name() == "ReadBit" && isReadBitSig(sig):
			return recvName + ".ReadBit"
		case monitorMethods[recvName][fn.Name()]:
			return recvName + "." + fn.Name()
		}
		return ""
	}
	if fn.Name() == "ReadAll" && fn.Pkg() != nil && pkgBase(fn.Pkg().Path()) == "bitstream" {
		return "bitstream.ReadAll"
	}
	return ""
}

// isReadBitSig matches the BitReader contract: func() (byte, error).
func isReadBitSig(sig *types.Signature) bool {
	if sig.Params().Len() != 0 || sig.Results().Len() != 2 {
		return false
	}
	first, ok := sig.Results().At(0).Type().(*types.Basic)
	if !ok || first.Kind() != types.Byte {
		return false
	}
	return isErrorType(sig.Results().At(1).Type())
}

// errResultIndex returns the position of the trailing error result.
func errResultIndex(pass *analysis.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		last := t.Len() - 1
		if last >= 0 && isErrorType(t.At(last).Type()) {
			return last
		}
	default:
		if isErrorType(tv.Type) {
			return 0
		}
	}
	return -1
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
