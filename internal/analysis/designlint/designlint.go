// Package designlint statically verifies the hardware design space of the
// testing block: it walks the extracted structure model (internal/design)
// of each design point — primitive inventory, register map, declared
// resources — and proves the paper's construction constraints without
// clocking a single bit through the simulator.
//
// The rules, each tied to a constraint of the source paper (DESIGN.md
// §5.9 maps them one to one):
//
//   - counterwidth: every counter-like primitive is exactly as wide as its
//     worst-case count at the design's sequence length demands — narrower
//     wraps silently, wider burns flip-flops the resource budget counts.
//   - regmap: the register file tiles the 7-bit address space densely with
//     no collisions, no value crosses the 16-bit bus without a declared
//     multi-word split, and every entry traces to a live statistic (and
//     every readable statistic to an entry).
//   - sharing: the paper's resource-sharing tricks hold — no redundant
//     ones counter (n1 derives from S_final), one shared pattern shift
//     register, approximate entropy reuses the serial counters, and no
//     shared primitive is mapped as two simultaneously-live statistics.
//   - resources: the FF/LUT accounting each primitive declares agrees
//     with its declared geometry, and the output multiplexer is sized for
//     exactly the words the register file assigned.
//   - reset: every stateful primitive of the live netlist actually clears
//     on Reset (state is planted through the parallel-load ports, never by
//     streaming bits).
//
// The expected structure is derived in spec.go from (n, tests, params)
// alone, independently of the construction code, so construction bugs
// cannot justify themselves.
package designlint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/design"
	"repro/internal/hwsim"
)

// Finding is one rule violation in one design point.
type Finding struct {
	// Design is the design point name (e.g. "n65536-medium").
	Design string
	// Rule is the name of the rule that fired.
	Rule string
	// Msg describes the violation.
	Msg string
}

// String formats the finding as "design: [rule] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Design, f.Rule, f.Msg)
}

// Rule is one verification pass over a design model.
type Rule struct {
	// Name identifies the rule in findings.
	Name string
	// Doc is a one-line description.
	Doc string
	// check returns violation messages for d. The derived spec s is nil
	// only if derivation failed (reported separately by Check).
	check func(d *design.Design, s *designSpec) []string
}

// Rules returns all rules in execution order.
func Rules() []*Rule {
	return []*Rule{ruleCounterWidth, ruleRegMap, ruleSharing, ruleResources, ruleReset}
}

// Check runs the given rules (all of them when none are given) over one
// design model.
func Check(d *design.Design, rules ...*Rule) []Finding {
	if len(rules) == 0 {
		rules = Rules()
	}
	s, err := specFor(d)
	if err != nil {
		return []Finding{{Design: d.Name, Rule: "spec", Msg: err.Error()}}
	}
	var out []Finding
	for _, r := range rules {
		for _, msg := range r.check(d, s) {
			out = append(out, Finding{Design: d.Name, Rule: r.Name, Msg: msg})
		}
	}
	return out
}

// CheckShipped extracts the paper's eight shipped design points and runs
// every rule over each.
func CheckShipped() ([]Finding, error) {
	designs, err := design.All()
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, d := range designs {
		out = append(out, Check(d)...)
	}
	return out, nil
}

// sortedKeys returns the keys of a string-keyed map in stable order, so
// findings are deterministic run to run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// counterwidth: width sufficiency and budget.

var ruleCounterWidth = &Rule{
	Name: "counterwidth",
	Doc:  "every primitive exactly as wide as its worst-case count demands",
	check: func(d *design.Design, s *designSpec) []string {
		var msgs []string
		byName := make(map[string]design.Prim, len(d.Prims))
		for _, p := range d.Prims {
			if prev, dup := byName[p.Name]; dup {
				msgs = append(msgs, fmt.Sprintf(
					"primitive name %s constructed twice (%s and %s)",
					p.Name, prev.Kind, p.Kind))
				continue
			}
			byName[p.Name] = p
		}
		for _, name := range sortedKeys(s.prims) {
			want := s.prims[name]
			got, ok := byName[name]
			if !ok {
				msgs = append(msgs, fmt.Sprintf(
					"primitive %s (%s, %d bits) missing from the netlist",
					name, want.kind, want.width))
				continue
			}
			if got.Kind != want.kind {
				msgs = append(msgs, fmt.Sprintf(
					"primitive %s is a %s, the design calls for a %s",
					name, got.Kind, want.kind))
				continue
			}
			if got.Width < want.width {
				msgs = append(msgs, fmt.Sprintf(
					"%s %s is %d bits, too narrow for its worst-case count at n=%d (needs %d): it would wrap silently",
					got.Kind, name, got.Width, d.N, want.width))
			}
			if got.Width > want.width {
				msgs = append(msgs, fmt.Sprintf(
					"%s %s is %d bits, wider than its %d-bit worst case: %d flip-flop(s) over the resource budget",
					got.Kind, name, got.Width, want.width, got.Lanes*(got.Width-want.width)))
			}
			if got.Lanes != want.lanes {
				msgs = append(msgs, fmt.Sprintf(
					"%s %s has %d lanes, the design calls for %d",
					got.Kind, name, got.Lanes, want.lanes))
			}
		}
		for _, p := range d.Prims {
			if _, ok := s.prims[p.Name]; !ok {
				msgs = append(msgs, fmt.Sprintf(
					"unexpected primitive %s (%s, %d bits): not derivable from (n, tests, params)",
					p.Name, p.Kind, p.Width))
			}
		}
		return msgs
	},
}

// ---------------------------------------------------------------------------
// regmap: collisions, bus splits, dangling and unread registers.

var ruleRegMap = &Rule{
	Name: "regmap",
	Doc:  "register map collision-free, bus-split-correct, fully traced",
	check: func(d *design.Design, s *designSpec) []string {
		var msgs []string
		seen := make(map[string]bool, len(d.Regs))
		for _, r := range d.Regs {
			if seen[r.Name] {
				msgs = append(msgs, fmt.Sprintf("register %s mapped twice", r.Name))
			}
			seen[r.Name] = true
		}

		// The register file assigns addresses sequentially from 0: the
		// map must tile the address space densely — an overlap corrupts
		// readout, a hole wastes multiplexer words the area model pays
		// for.
		ordered := append([]design.Reg(nil), d.Regs...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].Addr < ordered[j].Addr })
		next := 0
		for _, r := range ordered {
			if r.Addr < next {
				msgs = append(msgs, fmt.Sprintf(
					"address collision: %s at word %d overlaps the previous register (first free word %d)",
					r.Name, r.Addr, next))
			} else if r.Addr > next {
				msgs = append(msgs, fmt.Sprintf(
					"hole in the address map before %s: words %d..%d unassigned but counted",
					r.Name, next, r.Addr-1))
			}
			if end := r.Addr + r.Words; end > next {
				next = end
			}
		}
		if next > 1<<design.AddressBits {
			msgs = append(msgs, fmt.Sprintf(
				"register map needs %d words, exceeding the %d-word (%d-bit) address space",
				next, 1<<design.AddressBits, design.AddressBits))
		}
		if d.Words != next {
			msgs = append(msgs, fmt.Sprintf(
				"register file declares %d words but the entries span %d", d.Words, next))
		}

		for _, r := range d.Regs {
			needWords := (r.Width + design.WordBits - 1) / design.WordBits
			if r.Words < needWords {
				msgs = append(msgs, fmt.Sprintf(
					"%s is %d bits wide but declares only %d word(s): the lane exceeds the %d-bit bus without a declared multi-word split",
					r.Name, r.Width, r.Words, design.WordBits))
			} else if r.Words > needWords {
				msgs = append(msgs, fmt.Sprintf(
					"%s declares %d words but its %d bits fit in %d",
					r.Name, r.Words, r.Width, needWords))
			}

			want, ok := s.regs[r.Name]
			if !ok {
				msgs = append(msgs, fmt.Sprintf(
					"dangling register %s: traces to no live statistic of the design",
					r.Name))
				continue
			}
			if r.Width != want.width {
				msgs = append(msgs, fmt.Sprintf(
					"%s is mapped %d bits wide but its source statistic (%s) is %d bits",
					r.Name, r.Width, want.prim, want.width))
			}
			if r.TestID != want.testID {
				msgs = append(msgs, fmt.Sprintf(
					"%s carries test ID %d, want %d", r.Name, r.TestID, want.testID))
			}
		}

		for _, name := range sortedKeys(s.regs) {
			if !seen[name] {
				msgs = append(msgs, fmt.Sprintf(
					"statistic %s (from %s) has no register-map entry: unreadable by software",
					name, s.regs[name].prim))
			}
		}
		return msgs
	},
}

// ---------------------------------------------------------------------------
// sharing: the paper's resource-sharing tricks.

var ruleSharing = &Rule{
	Name: "sharing",
	Doc:  "resource-sharing tricks hold; no statistic mapped twice",
	check: func(d *design.Design, s *designSpec) []string {
		var msgs []string

		// n1 derives from S_final in software: a dedicated ones counter
		// (or a register exposing one) is the redundancy the paper's
		// shared up/down counter eliminates.
		for _, p := range d.Prims {
			if strings.Contains(strings.ToLower(p.Name), "ones") {
				msgs = append(msgs, fmt.Sprintf(
					"redundant ones counter %s: n1 derives from S_FINAL via the shared up/down counter",
					p.Name))
			}
		}
		for _, r := range d.Regs {
			if strings.Contains(strings.ToUpper(r.Name), "ONES") {
				msgs = append(msgs, fmt.Sprintf(
					"register %s exposes a ones count: n1 derives from S_FINAL in software",
					r.Name))
			}
		}

		// One shared pattern shift register, if and only if a pattern
		// test is implemented.
		var shifts []string
		for _, p := range d.Prims {
			if p.Kind == "shiftreg" {
				shifts = append(shifts, p.Name)
			}
		}
		wantShift := d.Has(7) || d.Has(8) || d.Has(11) || d.Has(12)
		switch {
		case wantShift && len(shifts) == 0:
			msgs = append(msgs, "pattern tests implemented but no shared pattern shift register exists")
		case wantShift && len(shifts) > 1:
			msgs = append(msgs, fmt.Sprintf(
				"%d shift registers (%s): a private shift register defeats the shared-pattern trick",
				len(shifts), strings.Join(shifts, ", ")))
		case !wantShift && len(shifts) > 0:
			msgs = append(msgs, fmt.Sprintf(
				"shift register %s constructed but no pattern test is implemented", shifts[0]))
		}

		// Approximate entropy is the unified implementation: it reads the
		// serial banks and contributes no hardware of its own.
		if d.Has(12) {
			hasSerialBank := false
			for _, p := range d.Prims {
				if strings.HasPrefix(p.Name, "serial_nu") {
					hasSerialBank = true
				}
				if strings.HasPrefix(strings.ToLower(p.Name), "apen") ||
					strings.HasPrefix(strings.ToLower(p.Name), "ae_") {
					msgs = append(msgs, fmt.Sprintf(
						"dedicated approximate-entropy hardware %s: test 12 must reuse the serial counters",
						p.Name))
				}
			}
			for _, r := range d.Regs {
				if strings.HasPrefix(strings.ToUpper(r.Name), "APEN") {
					msgs = append(msgs, fmt.Sprintf(
						"dedicated approximate-entropy register %s: test 12 reads the SERIAL_NU* map",
						r.Name))
				}
			}
			if !hasSerialBank {
				msgs = append(msgs, "test 12 implemented but the serial pattern banks it reads are missing")
			}
		}

		// No shared primitive mapped as two simultaneously-live
		// statistics: every (primitive, facet, lane) is exposed by at
		// most one register.
		owner := make(map[string]string, len(d.Regs))
		for _, r := range d.Regs {
			want, ok := s.regs[r.Name]
			if !ok {
				continue // dangling; regmap reports it
			}
			key := fmt.Sprintf("%s/%s/%d", want.prim, want.facet, want.lane)
			if prev, dup := owner[key]; dup {
				msgs = append(msgs, fmt.Sprintf(
					"registers %s and %s alias the same statistic (%s): one shared primitive mapped as two live values",
					prev, r.Name, want.prim))
				continue
			}
			owner[key] = r.Name
		}

		// A register carrying the ID of a test the design point does not
		// implement claims a statistic that is never computed.
		for _, r := range d.Regs {
			if r.TestID == 0 || d.Has(r.TestID) {
				continue
			}
			// The serial map carries test 11 even when only the
			// approximate-entropy half of the unified pair is selected.
			if r.TestID == 11 && d.Has(12) {
				continue
			}
			msgs = append(msgs, fmt.Sprintf(
				"%s carries test ID %d, which this design point does not implement",
				r.Name, r.TestID))
		}
		return msgs
	},
}

// ---------------------------------------------------------------------------
// resources: declared accounting consistent with declared geometry.

var ruleResources = &Rule{
	Name: "resources",
	Doc:  "FF/LUT accounting consistent with declared widths",
	check: func(d *design.Design, _ *designSpec) []string {
		var msgs []string
		for _, p := range d.Prims {
			ffs, luts, err := expectedResources(p)
			if err != nil {
				msgs = append(msgs, fmt.Sprintf("%s: %v", p.Name, err))
				continue
			}
			if p.FFs != ffs || p.LUTs != luts {
				msgs = append(msgs, fmt.Sprintf(
					"%s %s declares %d FF / %d LUT, but a %d-bit×%d %s costs %d FF / %d LUT: accounting drifted from geometry",
					p.Kind, p.Name, p.FFs, p.LUTs, p.Width, p.Lanes, p.Kind, ffs, luts))
			}
		}
		if d.MuxWords != d.Words {
			msgs = append(msgs, fmt.Sprintf(
				"output multiplexer sized for %d words but the register file assigned %d",
				d.MuxWords, d.Words))
		}
		return msgs
	},
}

// ---------------------------------------------------------------------------
// reset: every stateful primitive clears.

var ruleReset = &Rule{
	Name: "reset",
	Doc:  "every stateful primitive clears on Reset",
	check: func(d *design.Design, _ *designSpec) []string {
		if d.Netlist == nil {
			return nil // model-only design (clone); nothing to exercise
		}
		var msgs []string
		report := func(p hwsim.Primitive, left string) {
			msgs = append(msgs, fmt.Sprintf(
				"%s: Reset left nonzero state (%s)", p.PrimName(), left))
		}
		for _, p := range d.Netlist.Primitives() {
			// State is planted through the parallel-load ports (a bank's
			// through one increment per counter) — the block's data path
			// is never clocked.
			switch v := p.(type) {
			case *hwsim.Counter:
				v.Load(^uint64(0))
				v.Reset()
				if got := v.Value(); got != 0 {
					report(p, fmt.Sprintf("value %#x", got))
				}
			case *hwsim.UpDownCounter:
				v.Load(-3)
				v.Reset()
				if got := v.Value(); got != 0 {
					report(p, fmt.Sprintf("value %d", got))
				}
			case *hwsim.Register:
				v.Load(^uint64(0))
				v.Reset()
				if got := v.Value(); got != 0 {
					report(p, fmt.Sprintf("value %#x", got))
				}
			case *hwsim.MinMaxTracker:
				v.Load(-5, 7)
				v.Reset()
				if v.Min() != 0 || v.Max() != 0 {
					report(p, fmt.Sprintf("min %d max %d", v.Min(), v.Max()))
				}
			case *hwsim.MaxTracker:
				v.Update(1)
				v.Reset()
				if got := v.Max(); got != 0 {
					report(p, fmt.Sprintf("max %#x", got))
				}
			case *hwsim.ShiftReg:
				v.Shift(1)
				v.Reset()
				if v.Fill() != 0 || v.Window(1) != 0 {
					report(p, fmt.Sprintf("fill %d window %#x", v.Fill(), v.Window(1)))
				}
			case *hwsim.CounterBank:
				for i := 0; i < v.Len(); i++ {
					v.Inc(i)
				}
				v.Reset()
				for i := 0; i < v.Len(); i++ {
					if got := v.Value(i); got != 0 {
						report(p, fmt.Sprintf("lane %d value %#x", i, got))
						break
					}
				}
			case *hwsim.EqComparator:
				// Stateless by construction.
			default:
				// An externally added primitive: probe it through the
				// generic load/value ports if it has them.
				l, okL := p.(interface{ Load(uint64) })
				r, okR := p.(interface{ Value() uint64 })
				if !okL || !okR {
					msgs = append(msgs, fmt.Sprintf(
						"%s: unknown primitive type %T, reset behaviour unverifiable", p.PrimName(), p))
					continue
				}
				l.Load(^uint64(0))
				p.Reset()
				if got := r.Value(); got != 0 {
					report(p, fmt.Sprintf("value %#x", got))
				}
			}
		}
		return msgs
	},
}
