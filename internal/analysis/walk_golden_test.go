package analysis_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

var walkDump = flag.String("walkdump", "", "write TestWalkGolden's records to this file (debugging aid)")

// Golden hashes of everything the three flow walks deliver over the
// analyzer testdata. A change to any means the walker now visits other
// nodes or carries another state to them: re-record only after checking
// the record-level difference (-walkdump before and after) is intended.
const (
	flowWalkGolden  = "a2c85ea6f20a5888e5331e86f8f733d61a855300fe10e6736d6c023cb0e4dd63"
	lockWalkGolden  = "d07e389080b7e233c2a113342f123939d500dbc9ea3a183ebac741f664f64f58"
	resetWalkGolden = "f5641a3eec23862bd45279e93879b9ed451f3332216b9fbd57d12cc675d2b786"
)

// TestWalkGolden pins FlowWalk, LockWalk and ResetWalk over every package
// under internal/analysis/*/testdata/src: for FlowWalk each visited node's
// position, node type and, for integer-typed expressions, its interval;
// for LockWalk each visited node's position, node type, held mutexes and
// provability; for ResetWalk each visited node's position, node type and
// watched monitors with their facts.
func TestWalkGolden(t *testing.T) {
	flowRecs, lockRecs, resetRecs := walkRecords(t)
	if *walkDump != "" {
		out := "# flow\n" + strings.Join(flowRecs, "\n") + "\n# lock\n" + strings.Join(lockRecs, "\n") +
			"\n# reset\n" + strings.Join(resetRecs, "\n") + "\n"
		if err := os.WriteFile(*walkDump, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		recs []string
		want string
	}{
		{"FlowWalk", flowRecs, flowWalkGolden},
		{"LockWalk", lockRecs, lockWalkGolden},
		{"ResetWalk", resetRecs, resetWalkGolden},
	} {
		if len(c.recs) == 0 {
			t.Fatalf("%s visited nothing", c.name)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(c.recs, "\n"))))
		if sum != c.want {
			t.Errorf("%s golden hash = %s over %d records, want %s", c.name, sum, len(c.recs), c.want)
		}
	}
}

func walkRecords(t *testing.T) (flowRecs, lockRecs, resetRecs []string) {
	t.Helper()
	roots, err := filepath.Glob("*/testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(roots)
	for _, root := range roots {
		var pkgs []string
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err == nil && (len(pkgs) == 0 || pkgs[len(pkgs)-1] != rel) {
				pkgs = append(pkgs, filepath.ToSlash(rel))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		l := load.NewTestdataLoader(root)
		for _, p := range pkgs {
			targets, err := l.Load(p)
			if err != nil {
				continue // fixtures without buildable files for this host
			}
			tgt := targets[0]
			where := func(n ast.Node) string {
				pos := tgt.Fset.Position(n.Pos())
				return fmt.Sprintf("%s/%s/%s:%d:%d %T", root, p,
					filepath.Base(pos.Filename), pos.Line, pos.Column, n)
			}
			ann := analysis.CollectConcAnnotations(tgt.Fset, tgt.Files, tgt.Pkg, tgt.Info,
				func(token.Pos, string, ...any) {})
			for _, f := range tgt.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					analysis.FlowWalk(tgt.Pkg, tgt.Info, fd.Body, func(n ast.Node, _ []ast.Node, ev *analysis.Evaluator) bool {
						rec := where(n)
						if e, ok := n.(ast.Expr); ok {
							if b, ok := tgt.Info.TypeOf(e).(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
								rec += " " + ev.Eval(e).String()
							}
						}
						flowRecs = append(flowRecs, rec)
						return true
					})
					fn, _ := tgt.Info.Defs[fd.Name].(*types.Func)
					analysis.LockWalk(tgt.Info, fd.Body, ann.AssumedLocks(fn), func(n ast.Node, held *analysis.LockSet, provable bool) bool {
						var names []string
						for _, obj := range held.Held() {
							names = append(names, obj.Name())
						}
						lockRecs = append(lockRecs, fmt.Sprintf("%s {%s} %v", where(n), strings.Join(names, ","), provable))
						return true
					})
					analysis.ResetWalk(tgt.Info, fd.Body, isMonitor(tgt.Info), func(n ast.Node, watched analysis.Watched) bool {
						var facts []string
						for key, f := range watched {
							rec := fmt.Sprintf("%s=%q", key, f.Source)
							if f.Fresh {
								rec += "!"
							}
							if f.Loop != nil {
								pos := tgt.Fset.Position(f.Loop.Pos())
								rec += fmt.Sprintf("@%d:%d", pos.Line, pos.Column)
							}
							facts = append(facts, rec)
						}
						sort.Strings(facts)
						resetRecs = append(resetRecs, fmt.Sprintf("%s {%s}", where(n), strings.Join(facts, ",")))
						return true
					})
				}
			}
		}
	}
	return flowRecs, lockRecs, resetRecs
}

// isMonitor is resetcheck's monitor test: a value of, or pointer to, a
// named type called Monitor, with & unwrapped.
func isMonitor(info *types.Info) func(ast.Expr) bool {
	return func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		t := info.TypeOf(e)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "Monitor"
	}
}
