package hwblock_test

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/hwblock"
)

// TestCycleAccurateFallback covers the designs the word-level model cannot
// take: hand-built parameters outside hwfast's range (an SP800-22 template
// length of 10, a serial length of 2). New still builds the block, on the
// cycle-accurate path; nothing can move it onto the fast path or into
// bit-sliced assist, and a bit-sliced fleet rejects the design at New while
// a serial fleet accepts it.
func TestCycleAccurateFallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*hwblock.Config)
	}{
		{"template-m10", func(c *hwblock.Config) { c.Params.TemplateM = 10 }},
		{"serial-m2", func(c *hwblock.Config) { c.Params.SerialM = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := hwblock.NewCustomConfig(tc.name, 1024, []int{1, 3, 7, 8, 11, 12, 13})
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&cfg)
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
