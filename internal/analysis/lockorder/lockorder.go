// Package lockorder proves the package's mutexes are acquired in one
// consistent partial order. It builds a static lock-acquisition graph —
// an edge A→B for every site that acquires B while A is provably held,
// both directly and through the intra-package call graph (calling a
// function that acquires B, transitively, while holding A) — and reports:
//
//   - self-edges: re-acquiring a mutex already held, which deadlocks a
//     non-reentrant sync.Mutex outright;
//   - inversions: an edge A→B whose reverse order B→…→A also exists
//     somewhere, i.e. a cycle in the graph — two goroutines walking the
//     two orders concurrently can deadlock.
//
// The fleet's pool → shard → stream hierarchy is the motivating order:
// with pool.mu and the per-stream pushMu annotated, a helper that takes
// pushMu and then calls back into a pool.mu-taking method while a pool
// method holds pool.mu and takes pushMu becomes a finding, not an outage.
//
// Scope and precision: lock identity is the mutex field/variable (all
// instances conflated — so sibling-instance rank-ordered locking needs a
// waiver), the call graph is intra-package and call-site based (function
// values and cross-package calls are not traversed), and acquisitions
// inside `go` literals are charged to the spawned goroutine, not the
// spawner. //trnglint:holds preconditions seed the held set, so helper
// chains participate. Waive an intended exception in place with
// //trnglint:allow lockorder <reason>.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer reports cycles in the static lock-acquisition order.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "build the static lock-acquisition graph (direct + intra-package " +
		"call graph) and report re-acquisition and lock-order inversions",
	Run: run,
}

// edge is one observed acquisition order: to was acquired at pos while
// from was held.
type edge struct {
	from, to types.Object
	pos      token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	ann := analysis.CollectConcAnnotations(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo, nil)

	// Pass 1: per function, the mutexes it acquires outside go-literals
	// and its intra-package callees (also outside go-literals: work a
	// spawned goroutine does is not on the caller's lock stack).
	direct := make(map[*types.Func]map[types.Object]bool)
	callees := make(map[*types.Func][]*types.Func)
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, d := range decls {
		fn := d.Fn
		acq := make(map[types.Object]bool)
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// Locks a spawned goroutine takes — literal or named —
				// are never on this function's lock stack.
				return false
			case *ast.CallExpr:
				if obj, acquire, ok := analysis.LockOpOf(pass.TypesInfo, n); ok && acquire {
					acq[obj] = true
				} else if callee := analysis.CalleeFunc(pass.TypesInfo, n); callee != nil && callee.Pkg() == pass.Pkg {
					callees[fn] = append(callees[fn], callee)
				}
			}
			return true
		})
		direct[fn] = acq
	}

	// Transitive closure: every mutex a call to fn may end up acquiring.
	trans := make(map[*types.Func]map[types.Object]bool, len(direct))
	for fn, acq := range direct {
		t := make(map[types.Object]bool, len(acq))
		for obj := range acq {
			t[obj] = true
		}
		trans[fn] = t
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			for _, callee := range cs {
				for obj := range trans[callee] {
					if !trans[fn][obj] {
						trans[fn][obj] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: flow-sensitive edge collection. The lock walker delivers
	// the set held BEFORE each call, so an acquire site yields from→to
	// edges and a call site yields from→(transitive acquires of callee).
	var edges []edge
	addEdge := func(from, to types.Object, pos token.Pos) {
		edges = append(edges, edge{from, to, pos})
	}
	for _, d := range decls {
		analysis.LockWalk(pass.TypesInfo, d.Decl.Body, ann.AssumedLocks(d.Fn), func(n ast.Node, held *analysis.LockSet, provable bool) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !provable || held.Empty() {
				return true
			}
			if obj, acquire, ok := analysis.LockOpOf(pass.TypesInfo, call); ok {
				if acquire {
					for _, from := range held.Held() {
						addEdge(from, obj, call.Pos())
					}
				}
				return true
			}
			if callee := analysis.CalleeFunc(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
				// Locks the callee assumes via //trnglint:holds are the
				// caller's own held set, not new acquisitions.
				assumed := make(map[types.Object]bool)
				for _, spec := range ann.HoldsOf(callee) {
					assumed[spec.Mutex] = true
				}
				// from == to is kept: calling a function that (re)acquires
				// a lock you hold is the indirect self-deadlock.
				for to := range trans[callee] {
					if assumed[to] {
						continue
					}
					for _, from := range held.Held() {
						addEdge(from, to, call.Pos())
					}
				}
			}
			return true
		})
	}

	report(pass, edges)
	return nil, nil
}

func report(pass *analysis.Pass, edges []edge) {
	// Deterministic order: by position, then names.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].pos != edges[j].pos {
			return edges[i].pos < edges[j].pos
		}
		if edges[i].from != edges[j].from {
			return edges[i].from.Name() < edges[j].from.Name()
		}
		return edges[i].to.Name() < edges[j].to.Name()
	})

	adj := make(map[types.Object]map[types.Object]token.Pos)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[types.Object]token.Pos)
		}
		if _, seen := adj[e.from][e.to]; !seen {
			adj[e.from][e.to] = e.pos
		}
	}

	type pair struct{ a, b types.Object }
	type selfKey struct {
		obj types.Object
		pos token.Pos
	}
	reported := make(map[pair]bool)
	selfReported := make(map[selfKey]bool)
	for _, e := range edges {
		if e.from == e.to {
			// Every re-acquisition site is its own bug; dedup per site,
			// not per mutex.
			k := selfKey{e.from, e.pos}
			if !selfReported[k] {
				selfReported[k] = true
				pass.Reportf(e.pos,
					"%s acquired while already held: self-deadlock for a non-reentrant mutex — "+
						"restructure, or waive with //trnglint:allow lockorder <reason>",
					e.from.Name())
			}
			continue
		}
		if reported[pair{e.from, e.to}] || reported[pair{e.to, e.from}] {
			continue
		}
		// Edges iterate in ascending position, so e is the pair's
		// earliest edge: its direction is the established order, and the
		// finding lands on the site that contradicts it — which is where
		// a waiver belongs.
		if backPos, ok := adj[e.to][e.from]; ok {
			reported[pair{e.from, e.to}] = true
			pass.Reportf(backPos,
				"lock order inversion: %s is acquired before %s here, but the reverse order exists at %s — "+
					"pick one order, or waive with //trnglint:allow lockorder <reason>",
				e.to.Name(), e.from.Name(), pass.Fset.Position(e.pos))
		} else if backPos, cyclic := reaches(adj, e.to, e.from); cyclic {
			reported[pair{e.from, e.to}] = true
			pass.Reportf(e.pos,
				"lock order cycle: %s is acquired before %s here, closing a cycle back through %s — "+
					"pick one order, or waive with //trnglint:allow lockorder <reason>",
				e.from.Name(), e.to.Name(), pass.Fset.Position(backPos))
		}
	}
}

// reaches reports whether target is reachable from start in the edge
// graph, returning the position of the first edge on a path.
func reaches(adj map[types.Object]map[types.Object]token.Pos, start, target types.Object) (token.Pos, bool) {
	type item struct {
		node     types.Object
		firstPos token.Pos
	}
	seen := map[types.Object]bool{start: true}
	var queue []item
	for _, to := range sortedKeys(adj[start]) {
		if to == target {
			return adj[start][to], true
		}
		seen[to] = true
		queue = append(queue, item{to, adj[start][to]})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, to := range sortedKeys(adj[cur.node]) {
			if to == target {
				return cur.firstPos, true
			}
			if !seen[to] {
				seen[to] = true
				queue = append(queue, item{to, cur.firstPos})
			}
		}
	}
	return token.NoPos, false
}

func sortedKeys(m map[types.Object]token.Pos) []types.Object {
	out := make([]types.Object, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if m[out[i]] != m[out[j]] {
			return m[out[i]] < m[out[j]]
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}
