// Package design is the shared address-map and structure model of the
// hardware testing block: one snapshot per design point holding the
// register-file layout (name, test, address, width, word count) and the
// structural primitive inventory (kind, name, width, lanes, declared
// resources), extracted from a live hwblock.Block.
//
// Two consumers read the same model, which is the point: cmd/regmapdoc
// renders REGISTERS.md from it and internal/analysis/designlint proves the
// paper's width, collision and sharing constraints over it. Because both
// walk one extraction, the generated documentation and the static checks
// cannot drift apart — a register that designlint verifies is exactly the
// register the documentation describes.
package design

import (
	"fmt"

	"repro/internal/hwblock"
	"repro/internal/hwsim"
	"repro/internal/nist"
)

// AddressBits and WordBits re-export the bus contract so model consumers
// need no hwblock import of their own.
const (
	AddressBits = hwblock.AddressBits
	WordBits    = hwblock.WordBits
)

// Prim is the structural identity of one primitive plus its declared
// resource footprint.
type Prim struct {
	// Kind is the primitive family ("counter", "updown", "register",
	// "minmax", "max", "shiftreg", "cmp", "bank").
	Kind string
	// Name is the instance name.
	Name string
	// Width is the per-lane width in bits.
	Width int
	// Lanes is the element count (bank size; 1 otherwise).
	Lanes int
	// FFs and LUTs are the resources the primitive declares through
	// hwsim.Primitive.Resources.
	FFs, LUTs int
}

// Reg is one register-file entry of the memory map: the register map's
// own entry type, so the model carries exactly what the map decodes.
type Reg = hwblock.Entry

// Design is the model of one design point.
type Design struct {
	// Name labels the design point (e.g. "n65536-medium").
	Name string
	// N is the sequence length in bits.
	N int
	// Tests lists the implemented SP800-22 test numbers.
	Tests []int
	// Params carries the per-test parameters the block was built with.
	Params nist.Params
	// MuxWords is the output-multiplexer width the netlist declares.
	MuxWords int
	// Words is the total number of addressable words of the register
	// file.
	Words int
	// Prims is the structural inventory in construction order.
	Prims []Prim
	// Regs is the memory map in address order.
	Regs []Reg

	// Netlist is the live structural inventory the model was extracted
	// from; designlint's reset rule exercises the primitives' parallel
	// load ports through it. Nil in hand-built or cloned models.
	Netlist *hwsim.Netlist
}

// Has reports whether the design implements test id.
func (d *Design) Has(id int) bool {
	for _, t := range d.Tests {
		if t == id {
			return true
		}
	}
	return false
}

// FreeWords reports the unassigned remainder of the 7-bit address space.
func (d *Design) FreeWords() int { return 1<<AddressBits - d.Words }

// Clone returns a deep copy of the model with the live netlist detached —
// the mutation-kill suite edits clones into deliberately broken variants
// without disturbing the original.
func (d *Design) Clone() *Design {
	c := *d
	c.Tests = append([]int(nil), d.Tests...)
	c.Prims = append([]Prim(nil), d.Prims...)
	c.Regs = append([]Reg(nil), d.Regs...)
	c.Netlist = nil
	return &c
}

// FromBlock extracts the model from a live block: its netlist and its
// design's register map. The map refused a layout that outgrows the 7-bit
// address space when it was built, so a consumer that only renders
// documentation (cmd/regmapdoc) never sees one even when designlint never
// runs.
func FromBlock(b *hwblock.Block) (*Design, error) {
	cfg := b.Config()
	d := &Design{
		Name:     cfg.Name,
		N:        cfg.N,
		Tests:    append([]int(nil), cfg.Tests...),
		Params:   cfg.Params,
		MuxWords: b.Netlist().MuxWords(),
		Words:    b.RegFile().Words(),
		Netlist:  b.Netlist(),
	}
	for _, p := range b.Netlist().Primitives() {
		desc, ok := p.(hwsim.Described)
		if !ok {
			return nil, fmt.Errorf("design: %s: primitive %s exposes no structural identity",
				cfg.Name, p.PrimName())
		}
		info := desc.Info()
		res := p.Resources()
		d.Prims = append(d.Prims, Prim{
			Kind: info.Kind, Name: info.Name, Width: info.Width, Lanes: info.Lanes,
			FFs: res.FFs, LUTs: res.LUTs,
		})
	}
	// Entries is a copy: the mutation-kill suite edits a model's
	// registers without touching the shared map.
	d.Regs = b.RegMap().Entries()
	return d, nil
}

// New builds the block for cfg and extracts its model.
func New(cfg hwblock.Config) (*Design, error) {
	b, err := hwblock.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("design: building %s: %w", cfg.Name, err)
	}
	return FromBlock(b)
}

// All extracts the models of the paper's eight shipped design points, in
// Table III column order.
func All() ([]*Design, error) {
	configs := hwblock.AllConfigs()
	out := make([]*Design, 0, len(configs))
	for _, cfg := range configs {
		d, err := New(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
