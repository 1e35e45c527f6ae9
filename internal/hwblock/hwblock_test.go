package hwblock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/trng"
)

// feed clocks every bit of s into a fresh block built from cfg.
func feed(t *testing.T, cfg Config, s *bitstream.Sequence) *Block {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(bitstream.NewReader(s)); err != nil {
		t.Fatal(err)
	}
	if !b.Done() {
		t.Fatal("block not done after N bits")
	}
	return b
}

// cfg128 returns the n=128 medium configuration (tests 1,2,3,4,11,12,13).
func cfg128(t *testing.T) Config {
	t.Helper()
	cfg, err := NewConfig(128, Medium)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func readVal(t *testing.T, b *Block, name string) uint64 {
	t.Helper()
	v, _, err := b.RegFile().ReadValue(name)
	if err != nil {
		t.Fatalf("ReadValue(%s): %v", name, err)
	}
	return v
}

// readSigned reads an offset-binary walk value and recenters it.
func readSigned(t *testing.T, b *Block, name string) int {
	return int(readVal(t, b, name)) - b.Config().N
}

func TestAllConfigsCount(t *testing.T) {
	cfgs := AllConfigs()
	if len(cfgs) != 8 {
		t.Fatalf("got %d configs, want 8 (Table III)", len(cfgs))
	}
	wantTests := map[string]int{
		"n128-light":      5,
		"n128-medium":     7,
		"n65536-light":    5,
		"n65536-medium":   6,
		"n65536-high":     9,
		"n1048576-light":  5,
		"n1048576-medium": 6,
		"n1048576-high":   9,
	}
	for _, cfg := range cfgs {
		if got := len(cfg.Tests); got != wantTests[cfg.Name] {
			t.Errorf("%s: %d tests, want %d", cfg.Name, got, wantTests[cfg.Name])
		}
	}
}

func TestNoHighVariantAt128(t *testing.T) {
	if _, err := NewConfig(128, High); err == nil {
		t.Error("high variant at n=128 accepted")
	}
}

func TestUnsupportedLength(t *testing.T) {
	if _, err := NewConfig(4096, Light); err == nil {
		t.Error("unsupported length accepted")
	}
}

func TestRegisterFileFitsSevenBitAddress(t *testing.T) {
	for _, cfg := range AllConfigs() {
		b, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		words := b.RegFile().Words()
		if words > 128 {
			t.Errorf("%s: register file needs %d words, exceeds 7-bit address space", cfg.Name, words)
		}
		t.Logf("%s: %d register-file words", cfg.Name, words)
	}
}

func TestWalkMatchesBatch(t *testing.T) {
	s := trng.Read(trng.NewIdeal(1), 128)
	b := feed(t, cfg128(t), s)
	wMax, wMin, wFin := s.RandomWalk()
	if got := readSigned(t, b, "S_MAX"); got != wMax {
		t.Errorf("S_MAX = %d, want %d", got, wMax)
	}
	if got := readSigned(t, b, "S_MIN"); got != wMin {
		t.Errorf("S_MIN = %d, want %d", got, wMin)
	}
	if got := readSigned(t, b, "S_FINAL"); got != wFin {
		t.Errorf("S_FINAL = %d, want %d", got, wFin)
	}
}

func TestOnesDerivableFromWalk(t *testing.T) {
	s := trng.Read(trng.NewBiased(0.7, 2), 128)
	b := feed(t, cfg128(t), s)
	sFinal := readSigned(t, b, "S_FINAL")
	ones := (sFinal + 128) / 2
	if ones != s.Ones() {
		t.Errorf("derived ones = %d, want %d (the omitted-counter trick)", ones, s.Ones())
	}
}

func TestRunsMatchesBatch(t *testing.T) {
	s := trng.Read(trng.NewMarkov(0.7, 3), 128)
	b := feed(t, cfg128(t), s)
	if got := int(readVal(t, b, "N_RUNS")); got != s.Runs() {
		t.Errorf("N_RUNS = %d, want %d", got, s.Runs())
	}
}

func TestBlockFreqMatchesBatch(t *testing.T) {
	s := trng.Read(trng.NewIdeal(4), 128)
	b := feed(t, cfg128(t), s)
	want := s.BlockOnes(16)
	for i, w := range want {
		if got := int(readVal(t, b, fmt.Sprintf("BF_EPS_%d", i))); got != w {
			t.Errorf("BF_EPS_%d = %d, want %d", i, got, w)
		}
	}
}

func TestLongestRunClassesMatchBatch(t *testing.T) {
	s := trng.Read(trng.NewIdeal(5), 128)
	b := feed(t, cfg128(t), s)
	// Recompute classes from the batch per-block longest runs (M=8,
	// classes ≤1,2,3,≥4).
	want := make([]int, 4)
	for _, lr := range s.BlockLongestRuns(8) {
		switch {
		case lr <= 1:
			want[0]++
		case lr >= 4:
			want[3]++
		default:
			want[lr-1]++
		}
	}
	for i, w := range want {
		if got := int(readVal(t, b, fmt.Sprintf("LR_NU_%d", i))); got != w {
			t.Errorf("LR_NU_%d = %d, want %d", i, got, w)
		}
	}
}

func TestSerialCountersMatchBatch(t *testing.T) {
	s := trng.Read(trng.NewIdeal(6), 128)
	b := feed(t, cfg128(t), s)
	for _, m := range []int{4, 3, 2} {
		want := s.PatternCountsOverlapping(m)
		for pat := 0; pat < 1<<uint(m); pat++ {
			name := fmt.Sprintf("SERIAL_NU%d_%0*b", m, m, pat)
			if got := int(readVal(t, b, name)); got != want[pat] {
				t.Errorf("%s = %d, want %d", name, got, want[pat])
			}
		}
	}
}

func TestSerialCountersSumToN(t *testing.T) {
	s := trng.Read(trng.NewIdeal(7), 128)
	b := feed(t, cfg128(t), s)
	for _, m := range []int{4, 3, 2} {
		sum := 0
		for pat := 0; pat < 1<<uint(m); pat++ {
			sum += int(readVal(t, b, fmt.Sprintf("SERIAL_NU%d_%0*b", m, m, pat)))
		}
		if sum != 128 {
			t.Errorf("m=%d: pattern counts sum to %d, want 128", m, sum)
		}
	}
}

func TestTemplateEnginesMatchBatch(t *testing.T) {
	cfg, err := NewConfig(65536, High)
	if err != nil {
		t.Fatal(err)
	}
	s := trng.Read(trng.NewIdeal(8), 65536)
	b := feed(t, cfg, s)

	// Test 7: W_i per block of length 8192, template 000000001.
	blockLen := 65536 / cfg.Params.NonOverlappingN
	for i := 0; i < cfg.Params.NonOverlappingN; i++ {
		want := s.CountTemplateNonOverlapping(cfg.Params.TemplateB, 9, i*blockLen, (i+1)*blockLen)
		if got := int(readVal(t, b, fmt.Sprintf("NO_W_%d", i))); got != want {
			t.Errorf("NO_W_%d = %d, want %d", i, got, want)
		}
	}

	// Test 8: class counts over blocks of 1024 with the all-ones template.
	wantClass := make([]int, 6)
	allOnes := uint32(1<<9 - 1)
	for blk := 0; blk < 65536/1024; blk++ {
		c := s.CountTemplateOverlapping(allOnes, 9, blk*1024, (blk+1)*1024)
		if c > 5 {
			c = 5
		}
		wantClass[c]++
	}
	for i, w := range wantClass {
		if got := int(readVal(t, b, fmt.Sprintf("OV_NU_%d", i))); got != w {
			t.Errorf("OV_NU_%d = %d, want %d", i, got, w)
		}
	}
}

// Property: for random 128-bit sequences, every hardware statistic equals
// its batch counterpart. This is the bit-serial == batch equivalence the
// whole platform rests on.
func TestSerialEqualsBatchProperty(t *testing.T) {
	cfg := cfg128(t)
	f := func(seed int64) bool {
		s := trng.Read(trng.NewIdeal(seed), 128)
		b, err := New(cfg)
		if err != nil {
			return false
		}
		if err := b.Run(bitstream.NewReader(s)); err != nil {
			return false
		}
		wMax, wMin, wFin := s.RandomWalk()
		if int(mustRead(b, "S_MAX"))-128 != wMax ||
			int(mustRead(b, "S_MIN"))-128 != wMin ||
			int(mustRead(b, "S_FINAL"))-128 != wFin {
			return false
		}
		if int(mustRead(b, "N_RUNS")) != s.Runs() {
			return false
		}
		for pat := 0; pat < 16; pat++ {
			if int(mustRead(b, fmt.Sprintf("SERIAL_NU4_%04b", pat))) != s.PatternCountsOverlapping(4)[pat] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func mustRead(b *Block, name string) uint64 {
	v, _, err := b.RegFile().ReadValue(name)
	if err != nil {
		panic(err)
	}
	return v
}

func TestClockAfterDoneFails(t *testing.T) {
	b := feed(t, cfg128(t), trng.Read(trng.NewIdeal(9), 128))
	if err := b.Clock(1); err == nil {
		t.Error("Clock accepted a bit after the sequence completed")
	}
}

func TestResetAllowsReuse(t *testing.T) {
	cfg := cfg128(t)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1 := trng.Read(trng.NewIdeal(10), 128)
	if err := b.Run(bitstream.NewReader(s1)); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if b.Done() || b.BitsSeen() != 0 {
		t.Fatal("reset did not clear sequence state")
	}
	s2 := trng.Read(trng.NewIdeal(11), 128)
	if err := b.Run(bitstream.NewReader(s2)); err != nil {
		t.Fatal(err)
	}
	if got := int(mustRead(b, "N_RUNS")); got != s2.Runs() {
		t.Errorf("after reset N_RUNS = %d, want %d (stale state?)", got, s2.Runs())
	}
	for pat := 0; pat < 16; pat++ {
		name := fmt.Sprintf("SERIAL_NU4_%04b", pat)
		if got := int(mustRead(b, name)); got != s2.PatternCountsOverlapping(4)[pat] {
			t.Errorf("after reset %s = %d, want %d", name, got, s2.PatternCountsOverlapping(4)[pat])
		}
	}
}

func TestRegFileReadWordUnmapped(t *testing.T) {
	b := feed(t, cfg128(t), trng.Read(trng.NewIdeal(12), 128))
	if got := b.RegFile().ReadWord(127); got != 0 {
		t.Errorf("unmapped read = %d, want 0", got)
	}
	if got := b.RegFile().ReadWord(-1); got != 0 {
		t.Errorf("negative read = %d, want 0", got)
	}
}

// TestRegMapNamesUnique checks that every entry of every shipped design's
// map, and of custom designs with every implementable test, has a name of
// its own that Lookup resolves back to it.
func TestRegMapNamesUnique(t *testing.T) {
	cfgs := AllConfigs()
	for _, n := range []int{64, 1024, 1 << 16} {
		cfg, err := NewCustomConfig(fmt.Sprintf("all-%d", n), n, []int{1, 2, 3, 4, 7, 8, 11, 12, 13})
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		m, err := NewRegMap(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for _, e := range m.Entries() {
			if got, ok := m.Lookup(e.Name); !ok || got != e {
				t.Errorf("%s: Lookup(%s) = %+v, %v; want %+v", cfg.Name, e.Name, got, ok, e)
			}
		}
	}
}

// TestRegFileMultiWordValue reads the 18-bit S_MAX of an all-ones n = 65536
// sequence, 2N in offset binary: two bus words, least significant first.
func TestRegFileMultiWordValue(t *testing.T) {
	cfg, err := NewConfig(65536, Light)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]uint64, cfg.N/64)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	if err := b.ClockWords(ones); err != nil {
		t.Fatal(err)
	}
	e, ok := b.RegMap().Lookup("S_MAX")
	if !ok || e.Width != 18 || e.Words != 2 {
		t.Fatalf("S_MAX entry = %+v, %v; want 18 bits in 2 words", e, ok)
	}
	v, reads, err := b.RegFile().ReadValue("S_MAX")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x20000 {
		t.Errorf("value = %#x, want 0x20000", v)
	}
	if reads != 2 {
		t.Errorf("bus reads = %d, want 2", reads)
	}
	if lo, hi := b.RegFile().ReadWord(e.Addr), b.RegFile().ReadWord(e.Addr+1); lo != 0 || hi != 2 {
		t.Errorf("bus words = %#x, %#x; want 0, 2", lo, hi)
	}
}

func TestEntriesForTest(t *testing.T) {
	b, err := New(cfg128(t))
	if err != nil {
		t.Fatal(err)
	}
	serialEntries := b.RegMap().EntriesForTest(11)
	if len(serialEntries) != 28 { // 16 + 8 + 4 pattern counters
		t.Errorf("serial test exposes %d entries, want 28", len(serialEntries))
	}
	cusum := b.RegMap().EntriesForTest(13)
	if len(cusum) != 3 {
		t.Errorf("cusum exposes %d entries, want 3", len(cusum))
	}
}

func TestSourceFailurePropagates(t *testing.T) {
	b, err := New(cfg128(t))
	if err != nil {
		t.Fatal(err)
	}
	short, _ := bitstream.ParseASCII("1010")
	if err := b.Run(bitstream.NewReader(short)); err == nil {
		t.Error("Run succeeded with a source that ran dry")
	}
}

func TestLargeVariantEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("2^20-bit feed is slow")
	}
	cfg, err := NewConfig(1<<20, High)
	if err != nil {
		t.Fatal(err)
	}
	s := trng.Read(trng.NewIdeal(13), 1<<20)
	b := feed(t, cfg, s)
	// Spot-check a handful of statistics against batch.
	if got := int(mustRead(b, "N_RUNS")); got != s.Runs() {
		t.Errorf("N_RUNS = %d, want %d", got, s.Runs())
	}
	counts := s.PatternCountsOverlapping(4)
	rng := rand.New(rand.NewSource(0))
	for k := 0; k < 4; k++ {
		pat := rng.Intn(16)
		name := fmt.Sprintf("SERIAL_NU4_%04b", pat)
		if got := int(mustRead(b, name)); got != counts[pat] {
			t.Errorf("%s = %d, want %d", name, got, counts[pat])
		}
	}
	for i := 0; i < 16; i++ {
		want := s.BlockOnes(65536)[i]
		if got := int(mustRead(b, fmt.Sprintf("BF_EPS_%d", i))); got != want {
			t.Errorf("BF_EPS_%d = %d, want %d", i, got, want)
		}
	}
}

func TestNetlistGrowsWithVariant(t *testing.T) {
	var prevFF int
	for _, v := range []Variant{Light, Medium, High} {
		cfg, err := NewConfig(65536, v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ff := b.Netlist().Total().FFs
		if ff <= prevFF {
			t.Errorf("%s: FFs = %d, not larger than previous variant (%d)", cfg.Name, ff, prevFF)
		}
		prevFF = ff
	}
}

func TestVariantString(t *testing.T) {
	if Light.String() != "light" || Medium.String() != "medium" || High.String() != "high" {
		t.Error("variant labels wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant label empty")
	}
}

func TestParseVariant(t *testing.T) {
	cases := []struct {
		in   string
		want Variant
		ok   bool
	}{
		{"light", Light, true},
		{"MEDIUM", Medium, true},
		{"High", High, true},
		{"huge", 0, false},
	}
	for _, c := range cases {
		got, err := ParseVariant(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseVariant(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseVariant(%q) accepted", c.in)
		}
	}
	for _, v := range []Variant{Light, Medium, High} {
		if got, err := ParseVariant(v.String()); err != nil || got != v {
			t.Errorf("ParseVariant(%v.String()) = %v, %v", v, got, err)
		}
	}
}
