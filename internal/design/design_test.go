package design

import (
	"strings"
	"testing"

	"repro/internal/hwblock"
)

// TestAllExtractsEightDesigns: the shipped set extracts cleanly and the
// model agrees with the live block it came from.
func TestAllExtractsEightDesigns(t *testing.T) {
	designs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != 8 {
		t.Fatalf("got %d designs, want 8", len(designs))
	}
	for _, d := range designs {
		if len(d.Prims) == 0 || len(d.Regs) == 0 {
			t.Errorf("%s: empty extraction (%d prims, %d regs)", d.Name, len(d.Prims), len(d.Regs))
		}
		if d.Netlist == nil {
			t.Errorf("%s: live netlist not attached", d.Name)
		}
		if d.MuxWords != d.Words {
			t.Errorf("%s: mux words %d != register-file words %d", d.Name, d.MuxWords, d.Words)
		}
		if d.Words+d.FreeWords() != 1<<AddressBits {
			t.Errorf("%s: words %d + free %d != %d", d.Name, d.Words, d.FreeWords(), 1<<AddressBits)
		}
	}
}

// TestModelMatchesRegFile: the extracted Regs are the register file's
// entries, field for field — the property that makes the model safe to
// share between REGISTERS.md generation and designlint.
func TestModelMatchesRegFile(t *testing.T) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hwblock.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	entries := b.RegMap().Entries()
	if len(d.Regs) != len(entries) {
		t.Fatalf("%d model regs vs %d entries", len(d.Regs), len(entries))
	}
	for i, e := range entries {
		r := d.Regs[i]
		if r.Name != e.Name || r.TestID != e.TestID || r.Addr != e.Addr ||
			r.Width != e.Width || r.Words != e.Words {
			t.Errorf("reg %d: model %+v != entry %+v", i, r, e)
		}
	}
	if len(d.Prims) != len(b.Netlist().Primitives()) {
		t.Errorf("%d model prims vs %d primitives", len(d.Prims), len(b.Netlist().Primitives()))
	}
}

// TestFromBlockChecksAddressSpace: a register map that outgrows the 7-bit
// address space is refused when it is built, so no block carries one and
// regmapdoc-style consumers that never run designlint cannot render an
// overflowing map.
func TestFromBlockChecksAddressSpace(t *testing.T) {
	cfg := hwblock.Config{Name: "wide", N: 4096, Tests: []int{2}}
	cfg.Params.BlockFrequencyM = 16 // 256 one-word registers
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "address space") {
		t.Fatalf("New: err = %v, want the map refused for exceeding the address space", err)
	}
}

// TestCloneDetaches: mutations of a clone never reach the original.
func TestCloneDetaches(t *testing.T) {
	designs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	d := designs[0]
	c := d.Clone()
	if c.Netlist != nil {
		t.Error("clone kept the live netlist")
	}
	c.Prims[0].Width = 999
	c.Regs[0].Addr = 999
	c.Tests[0] = 999
	if d.Prims[0].Width == 999 || d.Regs[0].Addr == 999 || d.Tests[0] == 999 {
		t.Error("clone aliases the original model")
	}
}
