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

// Golden hashes of everything the two flow walks deliver over the
// analyzer testdata. A change to either means the walker now visits other
// nodes or carries another state to them: re-record only after checking
// the record-level difference (-walkdump before and after) is intended.
const (
	flowWalkGolden = "966db95fdeb609ac3540b6a40c5ed05e1570e69d8c26f1d869f26848b5b4c672"
	lockWalkGolden = "2e94e8442bdcb70fdb248e3cdd3acd162c33fa7391bf59ef828a376dcd30029d"
)

// TestWalkGolden pins FlowWalk and LockWalk over every package under
// internal/analysis/*/testdata/src: for FlowWalk each visited node's
// position, node type and, for integer-typed expressions, its interval;
// for LockWalk each visited node's position, node type, held mutexes and
// provability.
func TestWalkGolden(t *testing.T) {
	flowRecs, lockRecs := walkRecords(t)
	if *walkDump != "" {
		out := "# flow\n" + strings.Join(flowRecs, "\n") + "\n# lock\n" + strings.Join(lockRecs, "\n") + "\n"
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

func walkRecords(t *testing.T) (flowRecs, lockRecs []string) {
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
				}
			}
		}
	}
	return flowRecs, lockRecs
}
