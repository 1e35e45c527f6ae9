package sweval

import (
	"os/exec"
	"strings"
	"testing"
)

// TestMeterInlines rebuilds the package with -gcflags=-m and requires the
// compiler to inline every metered ALU helper the evaluation loops call
// per counter: an out-of-line call per metered operation is the cost the
// shift-based limb count exists to avoid. The off test each helper makes
// before it charges counts against the same inline budget.
func TestMeterInlines(t *testing.T) {
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
	for _, fn := range []string{"words", "add", "sub", "mul", "sqr", "shl", "shr", "cmpGreater", "lut", "read"} {
		if !strings.Contains(string(out), "can inline (*meter)."+fn+"\n") &&
			!strings.Contains(string(out), "can inline (*meter)."+fn+" ") {
			t.Errorf("(*meter).%s does not inline", fn)
		}
	}
}
