package hwblock_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/hwblock"
	"repro/internal/nist"
	"repro/internal/sweval"
)

// TestCycleAccurateFallback covers the designs the word-level model cannot
// take: hand-built window shapes other than the 9-bit template
// B = 000000001 and serial m = 4 that every NewConfig and NewCustomConfig
// design uses. New still builds the block, on the cycle-accurate path;
// nothing can move it onto the fast path or into bit-sliced assist, and a
// bit-sliced fleet rejects the design at New while a serial fleet accepts
// it. The block clocks a full sequence and sweval evaluates it.
func TestCycleAccurateFallback(t *testing.T) {
	all := []int{1, 2, 3, 4, 7, 8, 11, 12, 13}
	for _, tc := range []struct {
		name  string
		n     int
		tests []int
		edit  func(*nist.Params)
	}{
		{"template-m10", 1024, []int{1, 3, 7, 8, 11, 12, 13}, func(p *nist.Params) { p.TemplateM = 10 }},
		{"serial-m2", 1024, []int{1, 3, 7, 8, 11, 12, 13}, func(p *nist.Params) { p.SerialM = 2 }},
		{"serial-m3", 1024, all, func(p *nist.Params) { p.SerialM = 3 }},
		{"serial-m5", 256, all, func(p *nist.Params) { p.SerialM = 5 }},
		// m = 6 is the widest serial length whose three banks fit the
		// register space beside nothing but the serial pair.
		{"serial-m6", 128, []int{11, 12}, func(p *nist.Params) { p.SerialM = 6 }},
		{"template-m3", 256, []int{1, 7, 8, 11, 12}, func(p *nist.Params) { p.TemplateM, p.TemplateB = 3, 0b101 }},
		{"template-010101010", 1024, all, func(p *nist.Params) { p.TemplateB = 0b010101010 }},
		{"template-111100000", 512, []int{1, 3, 7, 8, 11, 12}, func(p *nist.Params) { p.TemplateB = 0b111100000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := hwblock.NewCustomConfig(tc.name, tc.n, tc.tests)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&cfg.Params)
			b, err := hwblock.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if got := b.Path(); got != hwblock.CycleAccurate {
				t.Fatalf("Path() = %v, want %v", got, hwblock.CycleAccurate)
			}
			if err := b.SetPath(hwblock.FastPath); err == nil {
				t.Error("SetPath(FastPath) succeeded on a design without a fast-path model")
			}
			if err := b.SetSliced(true); err == nil {
				t.Error("SetSliced(true) succeeded on a design without a fast-path model")
			}
			if b.Sliced() {
				t.Error("Sliced() reports assist mode after the refused SetSliced")
			}

			rng := rand.New(rand.NewSource(int64(tc.n)))
			for fed := 0; fed < cfg.N; fed += 64 {
				if err := b.ClockWord(rng.Uint64(), 64); err != nil {
					t.Fatalf("ClockWord at bit %d: %v", fed, err)
				}
			}
			if !b.Done() {
				t.Fatalf("block not done after %d bits", cfg.N)
			}
			cv, err := sweval.NewCriticalValues(cfg, 0.01)
			if err != nil {
				t.Fatalf("NewCriticalValues: %v", err)
			}
			if _, err := sweval.NewEvaluator(cv).Evaluate(b); err != nil {
				t.Fatalf("Evaluate: %v", err)
			}

			serial, err := fleet.New(fleet.Config{Design: cfg, Alpha: 0.01, Shards: 1})
			if err != nil {
				t.Fatalf("serial fleet.New: %v", err)
			}
			serial.Shutdown()
			if p, err := fleet.New(fleet.Config{Design: cfg, Alpha: 0.01, Shards: 1, BitSliced: true}); err == nil {
				p.Shutdown()
				t.Fatal("bit-sliced fleet.New accepted a design without a fast-path model")
			}
		})
	}
}

// TestZeroBlockParams pins that a hand-built design with a block
// parameter of 0, or with more non-overlapping blocks than bits (0-bit
// blocks), is an error, not an integer-division panic, in every
// constructor that derives bank sizes from it: hwblock.New,
// sweval.NewCriticalValues and fleet.New (serial and bit-sliced).
func TestZeroBlockParams(t *testing.T) {
	for _, tc := range []struct {
		name, field string
		edit        func(*nist.Params)
	}{
		{"BlockFrequencyM", "BlockFrequencyM", func(p *nist.Params) { p.BlockFrequencyM = 0 }},
		{"LongestRunM", "LongestRunM", func(p *nist.Params) { p.LongestRunM = 0 }},
		{"NonOverlappingN", "NonOverlappingN", func(p *nist.Params) { p.NonOverlappingN = 0 }},
		{"OverlappingM", "OverlappingM", func(p *nist.Params) { p.OverlappingM = 0 }},
		{"NonOverlappingN-above-N", "NonOverlappingN", func(p *nist.Params) { p.NonOverlappingN = 1025 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := hwblock.NewCustomConfig("zero-"+tc.name, 1024, []int{1, 2, 3, 4, 7, 8, 11, 12, 13})
			if err != nil {
				t.Fatal(err)
			}
			if err := cfg.CheckParams(); err != nil {
				t.Fatalf("CheckParams on the unedited design: %v", err)
			}
			tc.edit(&cfg.Params)
			if err := cfg.CheckParams(); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("CheckParams: err = %v, want one naming %s", err, tc.field)
			}
			if _, err := hwblock.New(cfg); err == nil {
				t.Error("hwblock.New accepted the design")
			}
			if _, err := sweval.NewCriticalValues(cfg, 0.01); err == nil {
				t.Error("sweval.NewCriticalValues accepted the design")
			}
			for _, sliced := range []bool{false, true} {
				if p, err := fleet.New(fleet.Config{Design: cfg, Alpha: 0.01, Shards: 1, BitSliced: sliced}); err == nil {
					p.Shutdown()
					t.Errorf("fleet.New (BitSliced %v) accepted the design", sliced)
				}
			}
		})
	}
}
