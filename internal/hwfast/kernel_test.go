package hwfast

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestErosionMatchesNetwork checks the template kernels against the AND
// network over the nine window bits, evaluated one position at a time: for
// every 8-bit context, edge and random words and word sizes down to one
// bit, matchNO and matchOV must equal a per-position scan of the 9-bit
// window over the context and the word on every valid position.
func TestErosionMatchesNetwork(t *testing.T) {
	words := []uint64{
		0, ^uint64(0), 1, 1 << 63, 1 << 8, 1<<8 | 1, 0x1ff, 0x1ff << 55, 0xff << 56,
		1 << 56, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa, 0x8040201008040201,
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 24; i++ {
		// Sparse words hold long zero runs, so B = 000000001 matches.
		words = append(words, rng.Uint64(), rng.Uint64()&rng.Uint64()&rng.Uint64(), rng.Uint64()|rng.Uint64())
	}
	for ctx := uint64(0); ctx < 256; ctx++ {
		lo := ctx << 56
		for _, w := range words {
			for _, nbits := range []int{1, 2, 7, 8, 9, 31, 63, 64} {
				valid := lowMask(nbits)
				v := w & valid
				// bit(i) is the stream bit i clocks after the word's
				// first; the context holds bits -8…-1.
				bit := func(i int) uint64 {
					if i < 0 {
						return ctx >> uint(i+8) & 1
					}
					return v >> uint(i) & 1
				}
				var no, ov uint64
				for end := 0; end < nbits; end++ {
					ones := 0
					for k := 0; k < tplM; k++ {
						ones += int(bit(end - k))
					}
					if ones == tplM {
						ov |= 1 << uint(end)
					}
					if ones == 1 && bit(end) == 1 {
						no |= 1 << uint(end)
					}
				}
				if got := matchNO(v, lo) & valid; got != no {
					t.Fatalf("ctx %#02x word %#016x nbits %d: matchNO %#016x, scan %#016x", ctx, v, nbits, got, no)
				}
				if got := matchOV(v, lo) & valid; got != ov {
					t.Fatalf("ctx %#02x word %#016x nbits %d: matchOV %#016x, scan %#016x", ctx, v, nbits, got, ov)
				}
			}
		}
	}
}

// TestKernelsInline rebuilds the package with -gcflags=-m and requires the
// compiler to inline the straight-line kernels into (*State).ingest: a
// call per word is the cost the kernels exist to avoid, and a refactor
// that pushes one over the inlining budget would bring it back quietly.
func TestKernelsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds the package")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ingest.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	from, to := 0, 0
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "ingest" {
			from, to = fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
		}
	}
	if from == 0 {
		t.Fatal("no (*State).ingest in ingest.go")
	}
	inlined := make(map[string]bool)
	re := regexp.MustCompile(`(?:^|/)ingest\.go:(\d+):\d+: inlining call to (\S+)$`)
	for _, line := range strings.Split(string(out), "\n") {
		if m := re.FindStringSubmatch(line); m != nil {
			if at, _ := strconv.Atoi(m[1]); at >= from && at <= to {
				inlined[m[2]] = true
			}
		}
	}
	for _, fn := range []string{"erode8", "matchNO", "matchOV", "countLaneSets"} {
		if !inlined[fn] {
			t.Errorf("%s is not inlined into (*State).ingest (lines %d-%d)", fn, from, to)
		}
	}
}
