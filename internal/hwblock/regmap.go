package hwblock

import (
	"fmt"
	"slices"

	"repro/internal/hwsim"
	"repro/internal/nist"
)

// Entry is one named value of a register map. Values wider than 16 bits
// occupy consecutive word addresses, least significant word first.
type Entry struct {
	// Name is the value's symbolic name (e.g. "S_MAX", "SERIAL_NU4_0011").
	Name string
	// TestID is the SP800-22 test the value belongs to (0 for
	// infrastructure such as the global bit counter).
	TestID int
	// Addr is the first word address.
	Addr int
	// Width is the value width in bits.
	Width int
	// Words is the number of 16-bit words the value occupies.
	Words int
}

// Bank is a run of N consecutive register-map entries starting at entry
// First, read with one RegFile.ReadRange call. A design without the bank's
// test has N = 0.
type Bank struct{ First, N int }

// Banks locates every bank of a register map, in address order.
type Banks struct {
	Global     Bank    // GLOBAL_BITS
	Walk       Bank    // S_MAX, S_MIN, S_FINAL
	Runs       Bank    // N_RUNS
	BlockFreq  Bank    // BF_EPS_i
	LongestRun Bank    // LR_NU_i
	NonOverlap Bank    // NO_W_i
	Overlap    Bank    // OV_NU_i
	Serial     [3]Bank // SERIAL_NUw_pattern for w = SerialM − k at [k]
}

// walkFirst is the entry index of S_MAX: every map starts with
// GLOBAL_BITS and the walk triple.
const walkFirst = 1

// RegMap is the address decode of one design: every register's name,
// test, address, width and word count, and the banks they form. It is a
// pure function of the design's Config, immutable once built, and shared
// by every block built on it (NewBlock); a block holds only the live
// values behind the entries.
type RegMap struct {
	cfg     Config
	entries []Entry
	byName  map[string]int
	byAddr  []int32 // entry index of each word address
	words   int
	banks   Banks
}

// NewRegMap builds the register map of the design cfg describes. Each
// width is the one the value's hwsim primitive declares for its worst-case
// count (hwsim.WidthFor); designlint's counterwidth and regmap rules check
// both against an independent derivation. A map that outgrows the 7-bit
// address space is an error.
func NewRegMap(cfg Config) (*RegMap, error) {
	if cfg.N < 8 {
		return nil, fmt.Errorf("hwblock: sequence length %d too small", cfg.N)
	}
	if err := cfg.CheckParams(); err != nil {
		return nil, err
	}
	cfg.Tests = slices.Clone(cfg.Tests)
	m := &RegMap{cfg: cfg, byName: make(map[string]int)}
	n, p, bk := uint64(cfg.N), cfg.Params, &m.banks
	bk.Global = m.add(0, hwsim.WidthFor(n), 1, func(int) string { return "GLOBAL_BITS" })
	// The walk values are offset-binary (value + N), so they span [0, 2N].
	walk := [...]string{"S_MAX", "S_MIN", "S_FINAL"}
	bk.Walk = m.add(13, hwsim.WidthFor(2*n), len(walk), func(i int) string { return walk[i] })
	if cfg.Has(3) {
		bk.Runs = m.add(3, hwsim.WidthFor(n), 1, func(int) string { return "N_RUNS" })
	}
	if cfg.Has(2) {
		bk.BlockFreq = m.add(2, hwsim.WidthFor(uint64(p.BlockFrequencyM)), cfg.N/p.BlockFrequencyM, numbered("BF_EPS_%d"))
	}
	if cfg.Has(4) {
		lo, hi, err := nist.LongestRunClassBounds(p.LongestRunM)
		if err != nil {
			return nil, err
		}
		bk.LongestRun = m.add(4, hwsim.WidthFor(n/uint64(p.LongestRunM)), hi-lo+1, numbered("LR_NU_%d"))
	}
	if cfg.Has(7) {
		blockLen := cfg.N / p.NonOverlappingN
		bk.NonOverlap = m.add(7, hwsim.WidthFor(uint64(blockLen/p.TemplateM+1)), p.NonOverlappingN, numbered("NO_W_%d"))
	}
	if cfg.Has(8) {
		bk.Overlap = m.add(8, hwsim.WidthFor(n/uint64(p.OverlappingM)), nist.OverlappingTemplateK+1, numbered("OV_NU_%d"))
	}
	if cfg.Has(11) || cfg.Has(12) {
		// One set of pattern counters serves both tests (the unified
		// implementation), so every bank carries test 11.
		for k := range bk.Serial {
			w := p.SerialM - k
			bk.Serial[k] = m.add(11, hwsim.WidthFor(n), 1<<uint(w), numbered(fmt.Sprintf("SERIAL_NU%d_%%0%db", w, w)))
		}
	}
	if m.words > 1<<AddressBits {
		return nil, fmt.Errorf("hwblock: design %s: register file needs %d words, exceeds the %d-word (7-bit) address space",
			cfg.Name, m.words, 1<<AddressBits)
	}
	return m, nil
}

// numbered names a bank's entries by formatting their index.
func numbered(format string) func(int) string {
	return func(i int) string { return fmt.Sprintf(format, i) }
}

// add appends a bank of count entries of one test and width, assigning
// each the next free word-aligned address range.
func (m *RegMap) add(testID, width, count int, name func(int) string) Bank {
	bk := Bank{First: len(m.entries), N: count}
	words := (width + WordBits - 1) / WordBits
	for i := range count {
		e := Entry{Name: name(i), TestID: testID, Addr: m.words, Width: width, Words: words}
		for range words {
			m.byAddr = append(m.byAddr, int32(len(m.entries)))
		}
		m.byName[e.Name] = len(m.entries)
		m.entries = append(m.entries, e)
		m.words += words
	}
	return bk
}

// Config returns the design the map decodes.
func (m *RegMap) Config() Config { return m.cfg }

// Banks locates the map's banks.
func (m *RegMap) Banks() Banks { return m.banks }

// Entries returns a copy of all entries in address order.
func (m *RegMap) Entries() []Entry { return slices.Clone(m.entries) }

// EntriesForTest returns the entries belonging to one test.
func (m *RegMap) EntriesForTest(testID int) []Entry {
	var out []Entry
	for _, e := range m.entries {
		if e.TestID == testID {
			out = append(out, e)
		}
	}
	return out
}

// Lookup finds an entry by name.
func (m *RegMap) Lookup(name string) (Entry, bool) {
	i, ok := m.byName[name]
	if !ok {
		return Entry{}, false
	}
	return m.entries[i], true
}
