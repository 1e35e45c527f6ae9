// Differential equivalence suite: the word-level functional model
// (hwfast, wired as hwblock's fast ingest path) must present bit-exact
// register-file images against the cycle-accurate structural simulation —
// the golden reference — on every design variant, every stream, every
// word chunking, and at every bit boundary a read may occur.
package hwfast_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/hwfast"
	"repro/internal/nist"
)

// newPair instantiates the same design twice: one block on the fast path
// (the default) and one pinned to the cycle-accurate structural path.
func newPair(t testing.TB, cfg hwblock.Config) (fast, gold *hwblock.Block) {
	t.Helper()
	fast, err := hwblock.New(cfg)
	if err != nil {
		t.Fatalf("New(%s) fast: %v", cfg.Name, err)
	}
	if fast.Path() != hwblock.FastPath {
		t.Fatalf("New(%s): default path = %v, want fast", cfg.Name, fast.Path())
	}
	gold, err = hwblock.New(cfg)
	if err != nil {
		t.Fatalf("New(%s) gold: %v", cfg.Name, err)
	}
	if err := gold.SetPath(hwblock.CycleAccurate); err != nil {
		t.Fatalf("SetPath(%s): %v", cfg.Name, err)
	}
	return fast, gold
}

// compareImages fails the test if the two blocks' register files disagree
// anywhere, reporting the first mismatching named register.
func compareImages(t testing.TB, fast, gold *hwblock.Block, ctx string) {
	t.Helper()
	fi, gi := fast.RegFile().Image(), gold.RegFile().Image()
	if len(fi) != len(gi) {
		t.Fatalf("%s: image sizes differ: fast %d words, gold %d", ctx, len(fi), len(gi))
	}
	for addr := range fi {
		if fi[addr] != gi[addr] {
			name := fmt.Sprintf("addr %d", addr)
			for _, e := range gold.RegMap().Entries() {
				if addr >= e.Addr && addr < e.Addr+e.Words {
					name = fmt.Sprintf("%s word %d (addr %d)", e.Name, addr-e.Addr, addr)
					break
				}
			}
			t.Fatalf("%s: register mismatch at %s: fast %#04x, gold %#04x",
				ctx, name, fi[addr], gi[addr])
		}
	}
}

// feedChunked pushes the sequence into the block in words of at most chunk
// bits (chunk 0 means per-bit Clock calls through the pending buffer).
func feedChunked(t testing.TB, b *hwblock.Block, seq *bitstream.Sequence, chunk int) {
	t.Helper()
	if chunk == 0 {
		for i := 0; i < seq.Len(); i++ {
			if err := b.Clock(seq.Bit(i)); err != nil {
				t.Fatalf("Clock(bit %d): %v", i, err)
			}
		}
		return
	}
	r := bitstream.NewReader(seq)
	for fed := 0; fed < seq.Len(); {
		take := chunk
		if rem := seq.Len() - fed; take > rem {
			take = rem
		}
		w, got, err := r.ReadWord64(take)
		if err != nil || got != take {
			t.Fatalf("ReadWord64(%d) at bit %d: got %d bits, err %v", take, fed, got, err)
		}
		if err := b.ClockWord(w, got); err != nil {
			t.Fatalf("ClockWord at bit %d: %v", fed, err)
		}
		fed += got
	}
}

// feedBursts pushes the sequence into the block alternating one word of
// at most chunk bits (ClockWord) with a run of up to burst whole 64-bit
// words (one ClockWords call), so bursts start at every bit offset the
// chunking reaches.
func feedBursts(t testing.TB, b *hwblock.Block, seq *bitstream.Sequence, chunk, burst int) {
	t.Helper()
	r := bitstream.NewReader(seq)
	ws := make([]uint64, 0, burst)
	for fed := 0; fed < seq.Len(); {
		w, got, err := r.ReadWord64(min(chunk, seq.Len()-fed))
		if err != nil {
			t.Fatalf("ReadWord64 at bit %d: %v", fed, err)
		}
		if err := b.ClockWord(w, got); err != nil {
			t.Fatalf("ClockWord at bit %d: %v", fed, err)
		}
		fed += got
		ws = ws[:0]
		for len(ws) < burst && seq.Len()-fed >= 64 {
			w, _, err := r.ReadWord64(64)
			if err != nil {
				t.Fatalf("ReadWord64 at bit %d: %v", fed, err)
			}
			ws = append(ws, w)
			fed += 64
		}
		if len(ws) > 0 {
			if err := b.ClockWords(ws); err != nil {
				t.Fatalf("ClockWords(%d words) ending at bit %d: %v", len(ws), fed, err)
			}
		}
	}
}

func randomSequence(n int, seed int64) *bitstream.Sequence {
	rng := rand.New(rand.NewSource(seed))
	s := bitstream.New(n)
	for i := 0; i < n; i += 64 {
		w := rng.Uint64()
		for j := 0; j < 64 && i+j < n; j++ {
			s.AppendBit(byte(w >> uint(j)))
		}
	}
	return s
}

// corpus128 is the structured stream corpus for the exhaustive n=128 pass:
// the degenerate extremes, every single-bit position, run ramps, and a
// batch of random streams.
func corpus128() map[string]*bitstream.Sequence {
	const n = 128
	out := make(map[string]*bitstream.Sequence)
	constant := func(bit byte) *bitstream.Sequence {
		s := bitstream.New(n)
		for i := 0; i < n; i++ {
			s.AppendBit(bit)
		}
		return s
	}
	out["zeros"] = constant(0)
	out["ones"] = constant(1)
	for phase := 0; phase < 2; phase++ {
		s := bitstream.New(n)
		for i := 0; i < n; i++ {
			s.AppendBit(byte((i + phase) & 1))
		}
		out[fmt.Sprintf("alternating-%d", phase)] = s
	}
	for pos := 0; pos < n; pos++ {
		s := bitstream.New(n)
		for i := 0; i < n; i++ {
			if i == pos {
				s.AppendBit(1)
			} else {
				s.AppendBit(0)
			}
		}
		out[fmt.Sprintf("one-at-%d", pos)] = s
	}
	// Run ramp: runs of growing length 1,2,3,... alternating value.
	ramp := bitstream.New(n)
	bit, run := byte(1), 1
	for ramp.Len() < n {
		for i := 0; i < run && ramp.Len() < n; i++ {
			ramp.AppendBit(bit)
		}
		bit ^= 1
		run++
	}
	out["run-ramp"] = ramp
	for seed := int64(1); seed <= 8; seed++ {
		out[fmt.Sprintf("random-%d", seed)] = randomSequence(n, seed)
	}
	return out
}

// TestEquivalenceExhaustiveN128 runs the full structured corpus through
// every n=128 design under every word chunking, comparing register-file
// images both mid-sequence (after an odd prefix, exercising the lazy
// publish) and at completion.
func TestEquivalenceExhaustiveN128(t *testing.T) {
	chunkings := []int{0, 1, 3, 7, 8, 13, 31, 64} // 0 = per-bit Clock
	streams := corpus128()
	for _, cfg := range hwblock.AllConfigs() {
		if cfg.N != 128 {
			continue
		}
		for name, seq := range streams {
			for _, chunk := range chunkings {
				fast, gold := newPair(t, cfg)
				ctx := fmt.Sprintf("%s/%s/chunk=%d", cfg.Name, name, chunk)

				// Prefix of 77 bits (odd, not word aligned), compare
				// mid-sequence, then finish the stream.
				const prefix = 77
				head, tail := seq.Slice(0, prefix), seq.Slice(prefix, seq.Len())
				feedChunked(t, fast, head, chunk)
				feedChunked(t, gold, head, 0)
				compareImages(t, fast, gold, ctx+"/mid")
				feedChunked(t, fast, tail, chunk)
				feedChunked(t, gold, tail, 0)
				compareImages(t, fast, gold, ctx+"/final")
				if !fast.Done() || !gold.Done() {
					t.Fatalf("%s: blocks not done after %d bits", ctx, seq.Len())
				}
			}
		}
	}
}

// TestEquivalenceRandomized65536 compares the two paths over random
// streams for the three n=65536 designs, driving the fast block through
// Run's word-read path.
func TestEquivalenceRandomized65536(t *testing.T) {
	seeds := []int64{11, 22, 33}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cfg := range hwblock.AllConfigs() {
		if cfg.N != 65536 {
			continue
		}
		for _, seed := range seeds {
			seq := randomSequence(cfg.N, seed)
			fast, gold := newPair(t, cfg)
			if err := fast.Run(bitstream.NewReader(seq)); err != nil {
				t.Fatalf("%s: fast Run: %v", cfg.Name, err)
			}
			if err := gold.Run(bitstream.NewReader(seq)); err != nil {
				t.Fatalf("%s: gold Run: %v", cfg.Name, err)
			}
			compareImages(t, fast, gold, fmt.Sprintf("%s/seed=%d", cfg.Name, seed))
		}
	}
}

// TestEquivalenceRandomized1M runs one random stream through the largest
// design (n=2^20, high) on both paths.
func TestEquivalenceRandomized1M(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 2^20-bit structural simulation in -short mode")
	}
	cfg, err := hwblock.NewConfig(1<<20, hwblock.High)
	if err != nil {
		t.Fatal(err)
	}
	seq := randomSequence(cfg.N, 7)
	fast, gold := newPair(t, cfg)
	if err := fast.Run(bitstream.NewReader(seq)); err != nil {
		t.Fatalf("fast Run: %v", err)
	}
	if err := gold.Run(bitstream.NewReader(seq)); err != nil {
		t.Fatalf("gold Run: %v", err)
	}
	compareImages(t, fast, gold, cfg.Name)
}

// TestEquivalenceAcrossReset proves the fast path stays exact when the
// block is reused: two different sequences back to back through one pair
// of blocks, with a Reset between.
func TestEquivalenceAcrossReset(t *testing.T) {
	for _, cfg := range hwblock.AllConfigs() {
		if cfg.N != 128 {
			continue
		}
		fast, gold := newPair(t, cfg)
		for _, seed := range []int64{101, 102} {
			seq := randomSequence(cfg.N, seed)
			feedChunked(t, fast, seq, 64)
			feedChunked(t, gold, seq, 0)
			compareImages(t, fast, gold, fmt.Sprintf("%s/seed=%d", cfg.Name, seed))
			fast.Reset()
			gold.Reset()
			compareImages(t, fast, gold, fmt.Sprintf("%s/after-reset", cfg.Name))
		}
	}
}

// straddleConfig is a custom design exercising every engine class at a
// size where boundary placement is easy to reason about: n=256 with the
// runs, longest-run and both template tests active (block lengths 16/8/32
// bits, 9-bit template windows).
func straddleConfig(t testing.TB) hwblock.Config {
	t.Helper()
	cfg, err := hwblock.NewCustomConfig("straddle-n256", 256, []int{1, 2, 3, 4, 7, 8, 13})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestWordEdgeStraddle is the table-driven boundary test: runs, template
// matches and block boundaries placed to straddle (or abut) the 64-bit
// word edges of the ingest path, verified against the structural
// simulation under chunkings that put the straddle at different in-word
// offsets. The fixed template is 0b000000001 — eight zeros then a one.
func TestWordEdgeStraddle(t *testing.T) {
	const n = 256
	template := func(s []byte, end int) { // match window ends at bit `end`
		for i := 0; i < 8; i++ {
			s[end-8+i] = 0
		}
		s[end] = 1
	}
	onesRun := func(s []byte, from, length int) {
		for i := 0; i < length; i++ {
			s[from+i] = 1
		}
	}
	cases := []struct {
		name  string
		build func(s []byte)
	}{
		{"ones-run-straddles-64", func(s []byte) { onesRun(s, 60, 9) }},
		{"ones-run-ends-at-63", func(s []byte) { onesRun(s, 56, 8) }},
		{"ones-run-starts-at-64", func(s []byte) { onesRun(s, 64, 8) }},
		{"ones-run-straddles-128", func(s []byte) { onesRun(s, 120, 17) }},
		{"run-across-lr-block-boundary", func(s []byte) { onesRun(s, 5, 6) }}, // longest-run blocks are 8 bits
		{"template-ends-at-64", func(s []byte) { template(s, 64) }},
		{"template-ends-at-63", func(s []byte) { template(s, 63) }},
		{"template-straddles-64", func(s []byte) { template(s, 68) }},
		{"template-straddles-192", func(s []byte) { template(s, 197) }},
		{"template-at-no-block-boundary", func(s []byte) { template(s, 32) }}, // non-overlap blocks are 32 bits
		{"template-window-crosses-no-block", func(s []byte) { template(s, 36) }},
		{"adjacent-templates-holdoff", func(s []byte) { template(s, 72); template(s, 81) }},
		{"back-to-back-runs-at-edge", func(s []byte) {
			onesRun(s, 62, 2)
			s[64] = 0
			onesRun(s, 65, 3)
		}},
		{"alternating-around-edges", func(s []byte) {
			for i := 58; i < 70; i++ {
				s[i] = byte(i & 1)
			}
		}},
	}
	cfg := straddleConfig(t)
	chunkings := []int{0, 1, 9, 32, 64}
	for _, c := range cases {
		bitvals := make([]byte, n)
		c.build(bitvals)
		seq := bitstream.FromBits(bitvals)
		for _, chunk := range chunkings {
			fast, gold := newPair(t, cfg)
			feedChunked(t, fast, seq, chunk)
			feedChunked(t, gold, seq, 0)
			compareImages(t, fast, gold, fmt.Sprintf("%s/chunk=%d", c.name, chunk))
		}
	}
}

// serialConfigs are the designs with a serial engine that the ragged
// warm-up schedules run on: the shipped n128-medium and the all-tests
// NewCustomConfig designs at n = 256 and 1024, where the serial window
// shares the pattern context with both 9-bit templates.
func serialConfigs(t testing.TB) []hwblock.Config {
	t.Helper()
	medium, err := hwblock.NewConfig(128, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	out := []hwblock.Config{medium}
	for _, n := range []int{256, 1024} {
		cfg, err := hwblock.NewCustomConfig(fmt.Sprintf("serial-n%d", n), n, []int{1, 2, 3, 4, 7, 8, 11, 12, 13})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cfg)
	}
	return out
}

// TestEquivalenceSerialLengths runs the serial designs under ragged chunk
// schedules whose first words end inside, at and just past the m-1
// warm-up bits, comparing images after every chunk through the warm-up
// (so the lazy narrower banks are read with a partial head) and at the
// end, then reuses both blocks for a second sequence after Reset.
func TestEquivalenceSerialLengths(t *testing.T) {
	for _, cfg := range serialConfigs(t) {
		m := cfg.Params.SerialM
		schedules := [][]int{{1}, {2}, {m - 2, 3, 64}, {m - 1, 64}, {m, 63}, {5, 64, 7}, {64}}
		for si, sched := range schedules {
			fast, gold := newPair(t, cfg)
			for run, seed := range []int64{int64(si) + 1, int64(si) + 100} {
				seq := randomSequence(cfg.N, seed)
				ctx := fmt.Sprintf("%s/schedule=%v/run=%d", cfg.Name, sched, run)
				for fed, i := 0, 0; fed < cfg.N; i++ {
					take := min(sched[i%len(sched)], cfg.N-fed)
					part := seq.Slice(fed, fed+take)
					feedChunked(t, fast, part, take)
					feedChunked(t, gold, part, 0)
					if fed += take; fed <= 2*m {
						compareImages(t, fast, gold, fmt.Sprintf("%s/bit=%d", ctx, fed))
					}
				}
				compareImages(t, fast, gold, ctx+"/final")
				fast.Reset()
				gold.Reset()
			}
		}
	}
}

// TestResidualKernelSelection pins which designs the residual kernels
// serve: every shipped design and every NewCustomConfig design (whose
// parameters come from nist.RecommendedParams) at n = 128, 1024, 65536
// and 2^20 builds a fast model and runs on the fast path. A parameter
// change that moved the shipped designs off the model's window shapes
// would fail here, not only in a benchmark.
func TestResidualKernelSelection(t *testing.T) {
	designs := hwblock.AllConfigs()
	subsets := [][]int{{1, 2, 3, 4, 7, 8, 11, 12, 13}, {7}, {8}, {7, 8}, {11}, {12}, {11, 12}, {1, 7, 12}, {3, 8, 11}}
	for _, n := range []int{128, 1024, 65536, 1 << 20} {
		for i, tests := range subsets {
			cfg, err := hwblock.NewCustomConfig(fmt.Sprintf("custom-n%d-%d", n, i), n, tests)
			if err != nil {
				t.Fatal(err)
			}
			designs = append(designs, cfg)
		}
	}
	residual := 0
	for _, cfg := range designs {
		if newModel(t, cfg).Residual() {
			residual++
		}
		b, err := hwblock.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.Path() != hwblock.FastPath {
			t.Errorf("%s: runs on the %v path, want the fast path", cfg.Name, b.Path())
		}
	}
	// Five shipped designs have residual engines: n128-medium and the
	// medium and high designs at n = 65536 and 2^20.
	if want := 5 + 4*len(subsets); residual != want {
		t.Errorf("%d designs with residual engines, want %d", residual, want)
	}
}

// TestNewSerialRange pins the window shapes the fast model accepts: a
// 9-bit template, the non-overlapping template 000000001 and serial
// m = 4, each checked on the tests that use it. Every other shape is an
// error (hwblock runs such a design cycle-accurate).
func TestNewSerialRange(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tests []int
		edit  func(*nist.Params)
		ok    bool
	}{
		{"shipped", []int{7, 8, 11, 12}, func(*nist.Params) {}, true},
		{"serial-m2", []int{11, 12}, func(p *nist.Params) { p.SerialM = 2 }, false},
		{"serial-m3", []int{11}, func(p *nist.Params) { p.SerialM = 3 }, false},
		{"serial-m5", []int{12}, func(p *nist.Params) { p.SerialM = 5 }, false},
		{"serial-m6", []int{11, 12}, func(p *nist.Params) { p.SerialM = 6 }, false},
		{"template-m3", []int{8}, func(p *nist.Params) { p.TemplateM, p.TemplateB = 3, 0b101 }, false},
		{"template-m10", []int{7, 8}, func(p *nist.Params) { p.TemplateM = 10 }, false},
		{"template-010101010", []int{7}, func(p *nist.Params) { p.TemplateB = 0b010101010 }, false},
		{"template-111100000", []int{7, 8}, func(p *nist.Params) { p.TemplateB = 0b111100000 }, false},
		// Shapes of tests the design does not implement do not matter.
		{"serial-m5-without-serial", []int{1, 7, 8}, func(p *nist.Params) { p.SerialM = 5 }, true},
		{"template-without-templates", []int{1, 11, 12}, func(p *nist.Params) { p.TemplateM, p.TemplateB = 3, 0b101 }, true},
		{"overlapping-ignores-B", []int{8}, func(p *nist.Params) { p.TemplateB = 0b010101010 }, true},
	} {
		p := nist.RecommendedParams(1024)
		tc.edit(&p)
		if _, err := hwfast.New(1024, tc.tests, p); (err == nil) != tc.ok {
			t.Errorf("%s: New err = %v, want accepted = %v", tc.name, err, tc.ok)
		}
	}
}

// TestNewRejectsBlockParams pins New's parameter guard: a block parameter
// below 1 on a test the design implements (a non-overlapping block count
// above n too, which leaves 0-bit blocks) is an error, so a direct caller
// gets no model whose first word would divide by zero or scan forever.
// Rejected designs are never clocked; each accepted one runs a whole
// sequence.
func TestNewRejectsBlockParams(t *testing.T) {
	const n = 65536
	for _, tc := range []struct {
		name  string
		tests []int
		edit  func(*nist.Params)
		ok    bool
	}{
		{"shipped", []int{2, 4, 7, 8}, func(*nist.Params) {}, true},
		{"block-frequency-0", []int{2}, func(p *nist.Params) { p.BlockFrequencyM = 0 }, false},
		{"longest-run-0", []int{4}, func(p *nist.Params) { p.LongestRunM = 0 }, false},
		{"non-overlapping-0", []int{7}, func(p *nist.Params) { p.NonOverlappingN = 0 }, false},
		{"non-overlapping-negative", []int{7}, func(p *nist.Params) { p.NonOverlappingN = -8 }, false},
		{"non-overlapping-above-n", []int{7}, func(p *nist.Params) { p.NonOverlappingN = n + 1 }, false},
		{"non-overlapping-n", []int{7}, func(p *nist.Params) { p.NonOverlappingN = n }, true},
		{"overlapping-0", []int{8}, func(p *nist.Params) { p.OverlappingM = 0 }, false},
		{"overlapping-negative", []int{8, 11}, func(p *nist.Params) { p.OverlappingM = -1 }, false},
		{"overlapping-1", []int{8}, func(p *nist.Params) { p.OverlappingM = 1 }, true},
		// Parameters of tests the design does not implement do not matter.
		{"zeros-without-their-tests", []int{1, 3, 11, 12, 13}, func(p *nist.Params) {
			p.BlockFrequencyM, p.LongestRunM, p.NonOverlappingN, p.OverlappingM = 0, 0, 0, 0
		}, true},
	} {
		p := nist.RecommendedParams(n)
		tc.edit(&p)
		st, err := hwfast.New(n, tc.tests, p)
		if (err == nil) != tc.ok {
			t.Errorf("%s: New err = %v, want accepted = %v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		for _, w := range randomWords(n/64, 5) {
			if err := st.ClockWord(w, 64); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if !st.Done() {
			t.Errorf("%s: not done after %d bits", tc.name, n)
		}
	}
}

// FuzzFastPathEquivalence feeds fuzz-chosen streams and word chunkings
// through the fast and structural paths on designs covering every engine:
// both n=128 variants, the all-tests custom designs at n = 256 and 1024,
// and the full n=65536 high design. A second fast block takes the
// same chunking interleaved with runs of fuzz-chosen length (1–16) of
// whole words, each run one ClockWords burst. Register-file images must
// agree mid-sequence and at the end.
func FuzzFastPathEquivalence(f *testing.F) {
	f.Add([]byte{0x00}, uint8(1), uint8(0))
	f.Add([]byte{0xff, 0x0f, 0xf0}, uint8(64), uint8(15))
	f.Add([]byte{0xaa, 0x55, 0x01, 0x80, 0x3c}, uint8(9), uint8(3))
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}, uint8(13), uint8(7))

	configs := []hwblock.Config{}
	for _, cfg := range hwblock.AllConfigs() {
		if cfg.N == 128 {
			configs = append(configs, cfg)
		}
	}
	for _, n := range []int{256, 1024} {
		custom, err := hwblock.NewCustomConfig(fmt.Sprintf("fuzz-n%d", n), n, []int{1, 2, 3, 4, 7, 8, 11, 12, 13})
		if err != nil {
			f.Fatal(err)
		}
		configs = append(configs, custom)
	}
	big, err := hwblock.NewConfig(65536, hwblock.High)
	if err != nil {
		f.Fatal(err)
	}
	configs = append(configs, big)

	f.Fuzz(func(t *testing.T, data []byte, chunk, burst uint8) {
		chunkN, burstN := int(chunk%64)+1, int(burst%16)+1
		for _, cfg := range configs {
			// Tile the fuzz input out to N bits, MSB-first per byte.
			seq := bitstream.New(cfg.N)
			for i := 0; i < cfg.N; i++ {
				var b byte
				if len(data) > 0 {
					b = data[(i/8)%len(data)] >> uint(7-i%8) & 1
				}
				seq.AppendBit(b)
			}
			fast, gold := newPair(t, cfg)
			bursty, err := hwblock.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prefix := cfg.N/2 + 1
			head, tail := seq.Slice(0, prefix), seq.Slice(prefix, cfg.N)
			feedChunked(t, fast, head, chunkN)
			feedBursts(t, bursty, head, chunkN, burstN)
			feedChunked(t, gold, head, 0)
			compareImages(t, fast, gold, cfg.Name+"/mid")
			compareImages(t, bursty, gold, cfg.Name+"/mid/bursts")
			feedChunked(t, fast, tail, chunkN)
			feedBursts(t, bursty, tail, chunkN, burstN)
			feedChunked(t, gold, tail, 0)
			compareImages(t, fast, gold, cfg.Name+"/final")
			compareImages(t, bursty, gold, cfg.Name+"/final/bursts")
		}
	})
}
