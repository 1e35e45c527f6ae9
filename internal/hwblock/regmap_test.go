package hwblock

import (
	"strings"
	"testing"
)

// TestBlocksShareRegMap checks that blocks built on one map share it and
// that New builds a map of its own that decodes the same layout.
func TestBlocksShareRegMap(t *testing.T) {
	for _, cfg := range AllConfigs() {
		m, err := NewRegMap(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := m.NewBlock(), m.NewBlock()
		if a.RegMap() != m || b.RegMap() != m {
			t.Fatalf("%s: a block built on the map does not share it", cfg.Name)
		}
		own, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if own.RegMap() == m {
			t.Fatalf("%s: New reused another block's map", cfg.Name)
		}
		got, want := own.RegMap().Entries(), m.Entries()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", cfg.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: entry %d = %+v, want %+v", cfg.Name, i, got[i], want[i])
			}
		}
	}
}

// TestRegMapRejectsAddressOverflow builds a design whose 256 block-frequency
// registers outgrow the 7-bit address space.
func TestRegMapRejectsAddressOverflow(t *testing.T) {
	cfg := Config{Name: "wide", N: 4096, Tests: []int{2}}
	cfg.Params.BlockFrequencyM = 16
	if _, err := NewRegMap(cfg); err == nil || !strings.Contains(err.Error(), "address space") {
		t.Fatalf("NewRegMap: err = %v, want an address-space overflow", err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted the design")
	}
}

// blockSink keeps BenchmarkNewBlock's blocks live, so the compiler keeps
// the construction.
var blockSink *Block

// BenchmarkNewBlock builds every shipped design's block, once on a map
// shared across the iterations (what a fleet pool or a CriticalValues
// does) and once standalone through New, which builds the map too.
func BenchmarkNewBlock(b *testing.B) {
	for _, cfg := range AllConfigs() {
		b.Run(cfg.Name+"/shared", func(b *testing.B) {
			m, err := NewRegMap(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blockSink = m.NewBlock()
			}
		})
		b.Run(cfg.Name+"/standalone", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if blockSink, err = New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
