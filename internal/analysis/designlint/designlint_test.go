package designlint

import (
	"strings"
	"testing"

	"repro/internal/design"
	"repro/internal/hwblock"
	"repro/internal/nist"
)

// TestShippedDesignsClean is the headline property and the design-space
// gate: the eight shipped design points carry zero findings — every
// width, address, trace and sharing trick checks out against the
// independently derived spec. It runs in go test ./..., so a finding
// fails the build.
func TestShippedDesignsClean(t *testing.T) {
	findings, err := CheckShipped()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestRulesResolvable: every rule carries a name and a doc, and names are
// unique, so each finding names exactly one rule.
func TestRulesResolvable(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range Rules() {
		if r.Name == "" || r.Doc == "" {
			t.Errorf("rule %+v missing name or doc", r)
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %s", r.Name)
		}
		seen[r.Name] = true
	}
}

// TestSuiteCoversAllConstraints keeps the five paper constraints wired: a
// dropped rule would silently weaken the gate.
func TestSuiteCoversAllConstraints(t *testing.T) {
	want := map[string]bool{
		"counterwidth": true, "regmap": true, "sharing": true,
		"resources": true, "reset": true,
	}
	for _, r := range Rules() {
		if !want[r.Name] {
			t.Errorf("unexpected rule %q", r.Name)
		}
		delete(want, r.Name)
	}
	for name := range want {
		t.Errorf("rule %q missing from the suite", name)
	}
}

// TestSpecCoversEveryPrimitive: the derivation names every constructed
// primitive and every register of every shipped design — no statistic is
// outside the checker's model.
func TestSpecCoversEveryPrimitive(t *testing.T) {
	designs, err := design.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range designs {
		s, err := specFor(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(s.prims) != len(d.Prims) {
			t.Errorf("%s: spec derives %d primitives, netlist has %d",
				d.Name, len(s.prims), len(d.Prims))
		}
		if len(s.regs) != len(d.Regs) {
			t.Errorf("%s: spec derives %d registers, map has %d",
				d.Name, len(s.regs), len(d.Regs))
		}
	}
}

// TestSharedShiftRegWidestConsumer: with a serial window wider than the
// template window, both the construction and the derived spec size the
// shared pattern shift register for the serial consumer (it used to be
// TemplateM unconditionally whenever tests 7/8 were present, leaving the
// serial engine a window wider than the register).
func TestSharedShiftRegWidestConsumer(t *testing.T) {
	p := nist.RecommendedParams(128)
	p.TemplateM = 4
	p.TemplateB = 0b0001
	p.SerialM = 5
	cfg := hwblock.Config{Name: "n128-serialwide", N: 128, Tests: []int{7, 11, 12, 13}, Params: p}
	b, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clock a full sequence through the structural path: the serial
	// engine reads Window(SerialM), which panics if the register was
	// sized for the narrower template consumer.
	if err := b.SetPath(hwblock.CycleAccurate); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i++ {
		if err := b.Clock(byte(i & 1)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := design.FromBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, prim := range d.Prims {
		if prim.Name == "shared_pattern" {
			found = true
			if prim.Width != p.SerialM {
				t.Errorf("shared_pattern is %d bits, want %d (the wider serial window)",
					prim.Width, p.SerialM)
			}
		}
	}
	if !found {
		t.Fatal("no shared_pattern primitive constructed")
	}
	for _, f := range Check(d) {
		t.Errorf("%s", f)
	}
}

// TestFindingString pins the report format the CLI prints.
func TestFindingString(t *testing.T) {
	f := Finding{Design: "n128-light", Rule: "regmap", Msg: "boom"}
	if got, want := f.String(), "n128-light: [regmap] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestCheckSubset: Check with an explicit rule runs only that rule.
func TestCheckSubset(t *testing.T) {
	designs, err := design.All()
	if err != nil {
		t.Fatal(err)
	}
	d := designs[0].Clone()
	d.MuxWords++ // resources violation only
	all := Check(d)
	if len(all) == 0 {
		t.Fatal("mux mutation produced no findings")
	}
	onlyRegmap := Check(d, ruleRegMap)
	for _, f := range onlyRegmap {
		if f.Rule != "regmap" {
			t.Errorf("Check(d, regmap) produced foreign finding %s", f)
		}
	}
	onlyRes := Check(d, ruleResources)
	found := false
	for _, f := range onlyRes {
		if strings.Contains(f.Msg, "multiplexer") {
			found = true
		}
	}
	if !found {
		t.Error("Check(d, resources) missed the mux mutation")
	}
}
