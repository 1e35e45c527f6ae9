package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"strings"
	"testing"
)

func TestIntervalString(t *testing.T) {
	cases := []struct {
		iv   Interval
		want string
	}{
		{Interval{0, 65535}, "[0, 65535]"},
		{Interval{-5, 5}, "[-5, 5]"},
		{Top, "[-inf, +inf]"},
		{Interval{0, posInf}, "[0, +inf]"},
		{Interval{negInf, 7}, "[-inf, 7]"},
	}
	for _, c := range cases {
		if got := c.iv.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.iv, got, c.want)
		}
	}
}

func TestFits16(t *testing.T) {
	cases := []struct {
		iv   Interval
		want bool
	}{
		{Interval{0, 0xFFFF}, true},
		{Interval{0, 0x10000}, false},
		{Interval{-0x8000, 0x7FFF}, true},
		{Interval{-0x8000, 0x8000}, false},
		{Interval{-0x8001, 0}, false},
		{Interval{-1, 0xFFFF}, false}, // needs 17 bits: sign and 16 magnitude
		{Interval{42, 42}, true},
		{Top, false},
	}
	for _, c := range cases {
		if got := c.iv.Fits16(); got != c.want {
			t.Errorf("%v.Fits16() = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestSaturatingScalars(t *testing.T) {
	if got := satAdd(math.MaxInt64-1, 10); got != posInf {
		t.Errorf("satAdd overflow = %d", got)
	}
	if got := satAdd(math.MinInt64+1, -10); got != negInf {
		t.Errorf("satAdd underflow = %d", got)
	}
	if got := satAdd(posInf, -5); got != posInf {
		t.Errorf("sticky +inf lost: %d", got)
	}
	if got := satMul(1<<40, 1<<40); got != posInf {
		t.Errorf("satMul overflow = %d", got)
	}
	if got := satMul(1<<40, -(1 << 40)); got != negInf {
		t.Errorf("satMul underflow = %d", got)
	}
	if got := satMul(negInf, -1); got != posInf {
		t.Errorf("satMul(-inf, -1) = %d", got)
	}
	if got := satShl(3, 62); got != posInf {
		t.Errorf("satShl overflow = %d", got)
	}
	if got := satShl(1, 4); got != 16 {
		t.Errorf("satShl(1,4) = %d", got)
	}
	if got := satNeg(negInf); got != posInf {
		t.Errorf("satNeg(-inf) = %d", got)
	}
}

func TestIntervalAlgebra(t *testing.T) {
	cases := []struct {
		name string
		got  Interval
		want Interval
	}{
		{"add", addIv(Interval{1, 2}, Interval{10, 20}), Interval{11, 22}},
		{"sub", subIv(Interval{1, 2}, Interval{10, 20}), Interval{-19, -8}},
		{"mul-signs", mulIv(Interval{-3, 2}, Interval{4, 5}), Interval{-15, 10}},
		{"mul-negneg", mulIv(Interval{-3, -2}, Interval{-4, -1}), Interval{2, 12}},
		{"and-const", andIv(Interval{negInf, posInf}, Interval{0xFF, 0xFF}), Interval{0, 0xFF}},
		{"and-nonneg", andIv(Interval{0, 100}, Interval{0, 7}), Interval{0, 7}},
		{"andnot", andNotIv(Interval{0, 100}, Top), Interval{0, 100}},
		{"or-pow2", orXorIv(Interval{0, 5}, Interval{0, 9}), Interval{0, 15}},
		{"shl", shlIv(Interval{1, 3}, Interval{2, 4}), Interval{4, 48}},
		{"shr", shrIv(Interval{16, 64}, Interval{2, 3}), Interval{2, 16}},
		{"rem-nonneg", remIv(Interval{0, posInf}, Interval{16, 16}), Interval{0, 15}},
		{"rem-signed", remIv(Interval{negInf, posInf}, Interval{16, 16}), Interval{-15, 15}},
		{"rem-dividend-bound", remIv(Interval{0, 7}, Interval{100, 100}), Interval{0, 7}},
		{"rem-div-zero-span", remIv(Interval{0, 7}, Interval{-1, 1}), Top},
		{"quo", quoIv(Interval{10, 21}, Interval{2, 5}), Interval{2, 10}},
		{"quo-zero-span", quoIv(Interval{10, 21}, Interval{0, 5}), Top},
		{"join", Interval{1, 5}.Join(Interval{-2, 3}), Interval{-2, 5}},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestFitToType(t *testing.T) {
	u16 := types.Typ[types.Uint16]
	if got := fitToType(Interval{0, 100}, u16); got != (Interval{0, 100}) {
		t.Errorf("fitting value widened: %v", got)
	}
	if got := fitToType(Interval{0, 0x10000}, u16); got != (Interval{0, 0xFFFF}) {
		t.Errorf("overflow should wrap to type range: %v", got)
	}
	if got := fitToType(Interval{-1, 5}, u16); got != (Interval{0, 0xFFFF}) {
		t.Errorf("negative into unsigned should wrap to type range: %v", got)
	}
}

// sinkIntervals type-checks a function body (with uint16 parameters a, b
// and plain-int parameters k, cond available), flow-walks it, and returns
// the interval of each sink(...) argument in source order.
func sinkIntervals(t *testing.T, body string) []Interval {
	t.Helper()
	src := fmt.Sprintf(`package p
func sink(x int64) {}
func helper() int { return 3 }
type mint int
func (m *mint) widen() { *m = 0x1FFFF }
func (m mint) peek() int { return int(m) }
func f(a, b uint16, k int, cond bool) {
%s
}`, body)
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "flow.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v\n%s", err, src)
	}
	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			fn = fd
		}
	}
	var out []Interval
	FlowWalk(pkg, info, fn.Body, func(n ast.Node, _ []ast.Node, ev *Evaluator) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sink" {
				out = append(out, ev.Eval(call.Args[0]))
			}
		}
		return true
	})
	return out
}

func TestFlowStraightLine(t *testing.T) {
	got := sinkIntervals(t, `
	x := 10
	sink(int64(x))
	x = x * 3
	sink(int64(x))
	x += 2
	sink(int64(x))
	x++
	sink(int64(x))
	var y int
	sink(int64(y))
	sink(int64(int(a) + 1))
	sink(int64(int(a) & 0xFF))
`)
	want := []Interval{
		{10, 10}, {30, 30}, {32, 32}, {33, 33}, {0, 0}, {1, 65536}, {0, 255},
	}
	checkIntervals(t, got, want)
}

func TestFlowBranchesAndLoops(t *testing.T) {
	got := sinkIntervals(t, `
	m := 0xFF
	if cond {
		m = 0xFFF
	}
	sink(int64(m)) // join of both branches

	n := 1
	if cond {
		n = 2
	} else {
		n = -4
	}
	sink(int64(n))

	p := 7
	for i := 0; i < k; i++ {
		p = k
	}
	sink(int64(p)) // assigned in loop: unknown

	q := 9
	for i := 0; i < k; i++ {
		_ = i
	}
	sink(int64(q)) // untouched by loop: still known

	r := 3
	switch k {
	case 0:
		r = k
	}
	sink(int64(r)) // assigned in a case: unknown
`)
	intRange := typeInterval(types.Typ[types.Int])
	want := []Interval{
		{0xFF, 0xFFF}, {-4, 2}, intRange, {9, 9}, intRange,
	}
	checkIntervals(t, got, want)
}

// checkIntervals compares sinkIntervals output against want.
func checkIntervals(t *testing.T, got, want []Interval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d sinks, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sink %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFlowReturningBranchDropsFromJoin(t *testing.T) {
	got := sinkIntervals(t, `
	m := 0xFF
	if cond {
		m = 0xFFF
		return
	}
	sink(int64(m)) // the returning branch doesn't reach here

	n := 1
	if cond {
		n = 2
	} else {
		n = 300
		panic("no")
	}
	sink(int64(n)) // nor does the panicking one
`)
	checkIntervals(t, got, []Interval{{0xFF, 0xFF}, {2, 2}})
}

func TestFlowBreakOutOfSwitchJoinsExit(t *testing.T) {
	got := sinkIntervals(t, `
	r := 3
	switch k {
	case 0:
		sink(int64(r)) // no case assigns before this: still the entry value
		r = 100
		break
	case 1:
		r = 7
		if cond {
			break
		}
		return
	default:
		r = 4
	}
	sink(int64(r)) // both breaks carry their value out
`)
	checkIntervals(t, got, []Interval{{3, 3}, {4, 100}})
}

func TestFlowFallthroughEntersNextCase(t *testing.T) {
	got := sinkIntervals(t, `
	f := 1
	switch k {
	case 0:
		f = 50
		fallthrough
	case 1:
		sink(int64(f)) // matched (1) or fallen into (50)
		f++
	default:
		f = 2
	}
	sink(int64(f)) // case 0 leaves only through case 1
`)
	checkIntervals(t, got, []Interval{{1, 50}, {2, 51}})
}

func TestFlowInvalidation(t *testing.T) {
	got := sinkIntervals(t, `
	x := 5
	f := func() { x = k }
	f()
	sink(int64(x)) // closure-assigned: never refined

	y := 6
	ptr := &y
	_ = ptr
	sink(int64(y)) // address-taken: never refined

	z := 7
	z = helper()
	sink(int64(z)) // opaque call result: type range
`)
	intRange := typeInterval(types.Typ[types.Int])
	want := []Interval{intRange, intRange, intRange}
	checkIntervals(t, got, want)
}

func TestFlowPointerReceiverInvalidates(t *testing.T) {
	// A pointer-receiver method call (or method value) takes the
	// receiver's address implicitly; the receiver must be treated like an
	// explicitly address-taken variable, or a mutation such as *m=0x1FFFF
	// inside widen() would leave a stale [255,255] refinement behind.
	got := sinkIntervals(t, `
	m := mint(255)
	m.widen()
	sink(int64(m)) // mutated through the implicit &m: never refined

	g := mint(255)
	w := g.widen
	w()
	sink(int64(g)) // method value captures &g: never refined

	v := mint(255)
	_ = v.peek()
	sink(int64(v)) // value receiver copies v: refinement survives
`)
	intRange := typeInterval(types.Typ[types.Int])
	want := []Interval{intRange, intRange, {255, 255}}
	checkIntervals(t, got, want)
}

func TestEvaluatorFloatExpressionsUnrefined(t *testing.T) {
	// Integer interval arithmetic must never touch a float expression:
	// quoIv would claim 1.0/2.0 = [0,0], and a mask derived from that
	// float would falsely discharge a 16-bit escape.
	got := sinkIntervals(t, `
	f := 1.0 / 2.0
	m := int(f * (1 << 18)) // really 131072: must not be refined to [0,0]
	sink(int64(m))
	sink(int64(int(a) * 17 & m))
`)
	intRange := typeInterval(types.Typ[types.Int])
	if len(got) != 2 {
		t.Fatalf("got %d sinks: %v", len(got), got)
	}
	if got[0] != intRange {
		t.Errorf("float-derived value should stay at the type range, got %v", got[0])
	}
	if got[1].Fits16() {
		t.Errorf("float-derived mask must not discharge a 16-bit escape: %v", got[1])
	}
}

func TestFlowGotoFreezes(t *testing.T) {
	got := sinkIntervals(t, `
	x := 5
	if cond {
		goto done
	}
	x = 6
done:
	sink(int64(x))
`)
	intRange := typeInterval(types.Typ[types.Int])
	if len(got) != 1 || got[0] != intRange {
		t.Errorf("goto should disable refinement: %v", got)
	}
}

func TestFlowFuncLitBodyWalked(t *testing.T) {
	// Sinks inside function literals are visited with their own flow.
	got := sinkIntervals(t, `
	g := func() {
		inner := 11
		sink(int64(inner))
	}
	g()
`)
	if len(got) != 1 || got[0] != (Interval{11, 11}) {
		t.Errorf("funclit body: %v", got)
	}
}

func TestEvaluatorHugeConstants(t *testing.T) {
	got := sinkIntervals(t, `
	const huge = 1 << 62
	sink(int64(huge))
	sink(int64(uint64(a) << 50))
`)
	if len(got) != 2 {
		t.Fatalf("got %d sinks: %v", len(got), got)
	}
	if got[0] != (Interval{1 << 62, 1 << 62}) {
		t.Errorf("const: %v", got[0])
	}
	// 65535 << 50 overflows int64's positive range: saturates unbounded.
	if got[1].Hi != posInf {
		t.Errorf("shift overflow should saturate: %v", got[1])
	}
}

func TestEvaluatorMessageInterval(t *testing.T) {
	// The interval that lands in regwidth's message for the canonical
	// masked/unmasked pair.
	got := sinkIntervals(t, `
	sink(int64((int(a) + 1) & 0xFFFF))
	sink(int64(int(a) + 1))
`)
	if len(got) != 2 {
		t.Fatalf("got %d sinks: %v", len(got), got)
	}
	if !got[0].Fits16() {
		t.Errorf("masked escape should fit: %v", got[0])
	}
	if got[1].Fits16() {
		t.Errorf("unmasked escape should not fit: %v", got[1])
	}
	if s := got[1].String(); !strings.Contains(s, "65536") {
		t.Errorf("interval text: %s", s)
	}
}
