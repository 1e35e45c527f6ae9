// Package hwblock implements the paper's hardware testing block: a set of
// bit-serial test engines built from the internal/hwsim primitives,
// digesting the TRNG stream one bit per clock and exposing the accumulated
// raw statistics through a 7-bit-address, 16-bit-data memory-mapped
// register file.
//
// The package realizes the paper's four area tricks (§III-C):
//
//   - Omitting a redundant counter: there is no ones counter; tests 1 and 3
//     derive N_ones from the final value of the cusum up/down counter.
//   - Block detection: every block length is a power of two, so block
//     boundaries are specific bits of the global bit counter.
//   - Unified implementation: the approximate-entropy test reads the serial
//     test's pattern counters and adds no hardware of its own.
//   - Shared shift register: one 9-bit shift register feeds both template
//     tests and (through its low bits) the serial-test pattern decoder.
//
// Eight design variants (three sequence lengths × up to three feature
// levels) reproduce the configurations of the paper's Table III. The full
// memory map of every variant is generated into REGISTERS.md at the
// repository root (cmd/regmapdoc; `make docs` keeps it in sync).
//
// The memory map is a RegMap: the paper's fixed 7-bit address decode,
// built once per design from its Config and immutable after that. Every
// block built on a map (RegMap.NewBlock) shares it and holds only the
// live values behind its entries; New builds a map for a single block.
//
// Blocks and register files accept an optional internal/obs registry
// (SetObs): ingested bits, completed sequences and bus transactions are
// then counted on the live exposition endpoint. The instrumentation is
// nil-safe and purely observational — the fast path pays its atomic adds
// once per 64-bit word (once per burst through ClockWords), and the
// bit-exact equivalence between the two ingest paths is unaffected.
//
//trnglint:bus16
//trnglint:deterministic
package hwblock

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitstream"
	"repro/internal/hwfast"
	"repro/internal/hwsim"
	"repro/internal/nist"
	"repro/internal/obs"
)

// IngestPath selects how a Block digests the bit stream.
type IngestPath int

const (
	// FastPath (the default) runs the word-level functional model
	// (internal/hwfast) and publishes its state into the structural
	// register image lazily, on the first bus read. It is bit-exact with
	// the cycle-accurate path — the differential equivalence suite proves
	// register-file agreement on all eight design variants.
	FastPath IngestPath = iota
	// CycleAccurate clocks the structural hwsim netlist one bit at a time,
	// exactly as the hardware does — the golden reference.
	CycleAccurate
)

// String names the path for CLI/report output.
func (p IngestPath) String() string {
	switch p {
	case FastPath:
		return "fast"
	case CycleAccurate:
		return "cycle-accurate"
	}
	return fmt.Sprintf("path(%d)", int(p))
}

// Variant is a feature level of the testing block.
type Variant int

// The paper's three feature levels.
const (
	Light Variant = iota
	Medium
	High
)

// String returns the variant's Table III column label.
func (v Variant) String() string {
	switch v {
	case Light:
		return "light"
	case Medium:
		return "medium"
	case High:
		return "high"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// ParseVariant is the inverse of String, ignoring case: it is how every
// command's -variant flag names a design.
func ParseVariant(s string) (Variant, error) {
	for _, v := range []Variant{Light, Medium, High} {
		if strings.ToLower(s) == v.String() {
			return v, nil
		}
	}
	return 0, fmt.Errorf("hwblock: unknown variant %q (want light, medium or high)", s)
}

// Config describes one testing-block design: the sequence length, the
// subset of NIST tests implemented, and the per-test parameters (all block
// lengths are powers of two so block boundaries come from global-counter
// bits).
type Config struct {
	// Name labels the design, e.g. "n65536-medium".
	Name string
	// N is the test sequence length in bits.
	N int
	// Tests lists the implemented SP800-22 test numbers, ascending.
	Tests []int
	// Params carries the per-test parameters; they must match the
	// reference suite's parameters for the same length so the HW/SW
	// decision can be validated against the reference decision.
	Params nist.Params
}

// Has reports whether the configuration implements test id.
func (c Config) Has(id int) bool {
	for _, t := range c.Tests {
		if t == id {
			return true
		}
	}
	return false
}

// CheckSame reports how o differs from the design c describes: an error
// naming the first of the name, the sequence length, the tests and the
// parameters that differs, or nil when both describe one design.
func (c Config) CheckSame(o Config) error {
	switch {
	case c.Name != o.Name:
		return fmt.Errorf("name %s, not %s", c.Name, o.Name)
	case c.N != o.N:
		return fmt.Errorf("n = %d, not %d", c.N, o.N)
	case !slices.Equal(c.Tests, o.Tests):
		return fmt.Errorf("tests %v, not %v", c.Tests, o.Tests)
	case c.Params != o.Params:
		return fmt.Errorf("parameters %+v, not %+v", c.Params, o.Params)
	}
	return nil
}

// CheckParams reports an error if a block parameter of an implemented
// test is below 1: the block-frequency and longest-run block lengths, the
// non-overlapping test's block count and the overlapping test's block
// length, which New and the software evaluator (internal/sweval) divide
// N by. A non-overlapping block count above N, whose blocks would be 0
// bits long, is an error too.
func (c Config) CheckParams() error {
	for _, f := range []struct {
		test int
		name string
		v    int
	}{
		{2, "BlockFrequencyM", c.Params.BlockFrequencyM},
		{4, "LongestRunM", c.Params.LongestRunM},
		{7, "NonOverlappingN", c.Params.NonOverlappingN},
		{8, "OverlappingM", c.Params.OverlappingM},
	} {
		if c.Has(f.test) && f.v < 1 {
			return fmt.Errorf("hwblock: design %s: %s = %d, want at least 1", c.Name, f.name, f.v)
		}
	}
	if c.Has(7) && c.Params.NonOverlappingN > c.N {
		return fmt.Errorf("hwblock: design %s: NonOverlappingN = %d leaves 0-bit blocks of an %d-bit sequence", c.Name, c.Params.NonOverlappingN, c.N)
	}
	return nil
}

// TestsFor returns the test subset of a variant at sequence length n,
// following the paper's Table III dot matrix (see DESIGN.md for the
// inference): light is the five quick-failure tests everywhere; medium adds
// the serial/ApEn pair at n=128 (where 9-bit templates are statistically
// meaningless) and the non-overlapping template test at the longer lengths;
// high implements all nine.
func TestsFor(n int, v Variant) ([]int, error) {
	light := []int{1, 2, 3, 4, 13}
	switch v {
	case Light:
		return light, nil
	case Medium:
		if n <= 256 {
			return []int{1, 2, 3, 4, 11, 12, 13}, nil
		}
		return []int{1, 2, 3, 4, 7, 13}, nil
	case High:
		if n <= 256 {
			return nil, fmt.Errorf("hwblock: no high variant at n=%d", n)
		}
		return []int{1, 2, 3, 4, 7, 8, 11, 12, 13}, nil
	}
	return nil, fmt.Errorf("hwblock: unknown variant %d", v)
}

// NewConfig builds the design configuration for one of the paper's design
// points.
func NewConfig(n int, v Variant) (Config, error) {
	switch n {
	case 128, 65536, 1 << 20:
	default:
		return Config{}, fmt.Errorf("hwblock: unsupported sequence length %d (want 128, 65536 or 1048576)", n)
	}
	tests, err := TestsFor(n, v)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Name:   fmt.Sprintf("n%d-%s", n, v),
		N:      n,
		Tests:  tests,
		Params: nist.RecommendedParams(n),
	}, nil
}

// NewCustomConfig implements the paper's future-work extension ("allowing
// the software to select the length of the test sequence, as well as the
// test parameters"): an arbitrary power-of-two sequence length with an
// arbitrary subset of the nine implementable tests. The tests may come in
// any order; the design lists them ascending, and a test named twice is an
// error. Parameters are derived from the closest standard configuration
// and re-scaled so every block length stays a power of two that divides n.
func NewCustomConfig(name string, n int, tests []int) (Config, error) {
	if n < 64 || n&(n-1) != 0 {
		return Config{}, fmt.Errorf("hwblock: custom length %d must be a power of two ≥ 64", n)
	}
	implementable := map[int]bool{1: true, 2: true, 3: true, 4: true, 7: true,
		8: true, 11: true, 12: true, 13: true}
	tests = slices.Clone(tests)
	slices.Sort(tests)
	for i, id := range tests {
		if !implementable[id] {
			return Config{}, fmt.Errorf("hwblock: test %d has no on-the-fly hardware implementation (Table I)", id)
		}
		if i > 0 && tests[i-1] == id {
			return Config{}, fmt.Errorf("hwblock: test %d is listed twice", id)
		}
	}
	p := nist.RecommendedParams(n)
	// Re-scale block lengths that no longer divide n.
	for p.BlockFrequencyM > n/4 {
		p.BlockFrequencyM /= 2
	}
	for p.LongestRunM > n/4 && p.LongestRunM > 8 {
		p.LongestRunM /= 2
	}
	if p.OverlappingM > n {
		p.OverlappingM = n
	}
	return Config{Name: name, N: n, Tests: tests, Params: p}, nil
}

// AllConfigs returns the paper's eight design points in Table III column
// order.
func AllConfigs() []Config {
	var out []Config
	for _, n := range []int{128, 65536, 1 << 20} {
		for _, v := range []Variant{Light, Medium, High} {
			cfg, err := NewConfig(n, v)
			if err != nil {
				continue // n=128 has no high variant
			}
			out = append(out, cfg)
		}
	}
	return out
}

// Block is one instantiated hardware testing block. Feed it exactly N bits
// with Clock (or Run); then read the raw statistics through the register
// file. The paper's usage is HW-always-on: call Reset and feed the next
// sequence while the software evaluates the previous counters (the register
// file snapshot survives until the next Reset via Snapshot).
type Block struct {
	m      *RegMap
	nl     *hwsim.Netlist
	rf     RegFile
	global *hwsim.Counter

	walk       *walkEngine
	runs       *runsEngine
	blockFreq  *blockFreqEngine
	longestRun *longestRunEngine
	shift      *hwsim.ShiftReg // shared by tests 7, 8, 11, 12
	nonOv      *nonOverlapEngine
	overlap    *overlapEngine
	serial     *serialEngine

	bits int
	done bool

	// Fast ingest path: the word-level functional model, a pending-bit
	// buffer batching per-bit Clock calls into word-level ingests, and a
	// dirty flag driving the lazy publish into the structural primitives.
	path  IngestPath
	fast  *hwfast.State
	pendW uint64
	pendN int
	dirty bool

	// Observability handles, cached by SetObs; nil-safe no-ops otherwise.
	// Fast-path bits are counted a word at a time (in flushPending and
	// ClockWord), or a burst at a time (ClockWords), so the instrumented
	// hot path pays its atomic adds per 64 bits or per burst, not per bit.
	obsBitsFast  *obs.Counter
	obsBitsCycle *obs.Counter
	obsWords     *obs.Counter
	obsSeqs      *obs.Counter
}

// New instantiates the design described by cfg on a register map of its
// own (NewRegMap). Blocks of one design that share a map come from
// RegMap.NewBlock.
func New(cfg Config) (*Block, error) {
	m, err := NewRegMap(cfg)
	if err != nil {
		return nil, err
	}
	return m.NewBlock(), nil
}

// NewBlock instantiates the map's design. The block reads its register
// decode from m and binds only the live values behind the entries.
func (m *RegMap) NewBlock() *Block {
	cfg := &m.cfg
	b := &Block{
		m:  m,
		nl: hwsim.NewNetlist(cfg.Name),
		rf: RegFile{m: m, refs: make([]*uint64, len(m.entries))},
	}
	// The word-level functional model is the default ingest path. It has
	// only the window shapes every NewConfig and NewCustomConfig design
	// uses (9-bit templates with B = 000000001, serial m = 4); a design
	// with hand-built Params of another shape falls back to the
	// cycle-accurate structural path (see TestCycleAccurateFallback).
	// Such a block has no fast model, so
	// SetPath(FastPath), SetSliced(true) and the word-stats hand-back
	// refuse it. The model is built first: the engines' counter banks
	// share its bank storage.
	if fast, err := hwfast.New(cfg.N, cfg.Tests, cfg.Params); err == nil {
		b.fast = fast
		b.rf.SetPrepare(b.publish)
	} else {
		b.path = CycleAccurate
	}
	b.global = hwsim.NewCounter(b.nl, "global_bits", uint64(cfg.N))
	b.rf.refs[m.banks.Global.First] = b.global.Ref()

	// The walk engine exists in every variant: it serves test 13 and, via
	// S_final, tests 1 and 3 (the "omitted redundant counter").
	b.walk = newWalkEngine(b, cfg.N)
	if cfg.Has(3) {
		b.runs = newRunsEngine(b, cfg.N)
	}
	if cfg.Has(2) {
		b.blockFreq = newBlockFreqEngine(b, cfg.Params.BlockFrequencyM)
	}
	if cfg.Has(4) {
		b.longestRun = newLongestRunEngine(b, cfg.Params.LongestRunM, cfg.N/cfg.Params.LongestRunM)
	}
	if cfg.Has(7) || cfg.Has(8) || cfg.Has(11) || cfg.Has(12) {
		// The shared shift register is sized for the widest implemented
		// consumer: TemplateM stages for the template tests, SerialM for
		// the serial/ApEn window — either may be the larger one.
		width := 0
		if cfg.Has(11) || cfg.Has(12) {
			width = cfg.Params.SerialM
		}
		if (cfg.Has(7) || cfg.Has(8)) && cfg.Params.TemplateM > width {
			width = cfg.Params.TemplateM
		}
		b.shift = hwsim.NewShiftReg(b.nl, "shared_pattern", width)
	}
	if cfg.Has(7) {
		b.nonOv = newNonOverlapEngine(b, cfg.Params.TemplateB, cfg.Params.TemplateM,
			cfg.N/cfg.Params.NonOverlappingN)
	}
	if cfg.Has(8) {
		b.overlap = newOverlapEngine(b, cfg.Params.TemplateM, cfg.Params.OverlappingM,
			cfg.N/cfg.Params.OverlappingM)
	}
	if cfg.Has(11) || cfg.Has(12) {
		b.serial = newSerialEngine(b, cfg.Params.SerialM, cfg.N)
	}
	b.nl.SetMuxWords(m.words)
	return b
}

// bind points the register file's entries of bank bk at the values ref
// returns for each of them.
func (b *Block) bind(bk Bank, ref func(i int) *uint64) {
	for i := range bk.N {
		b.rf.refs[bk.First+i] = ref(i)
	}
}

// bankStorage returns the storage a counter bank of n counters is built
// over: with a fast model, the model's own bank (which fast selects), so
// the register file reads the fast path's live counts and a sequence
// boundary copies nothing; without one, fresh storage.
func (b *Block) bankStorage(n int, fast func(*hwfast.State) []uint64) []uint64 {
	if b.fast == nil {
		return make([]uint64, n)
	}
	return fast(b.fast)
}

// SetObs attaches an observability registry: bits-ingested counters per
// path, a words counter for the fast path's 64-bit transfers, a completed-
// sequence counter, and the register file's bus-read counter. A nil
// registry detaches instrumentation. The counters never influence the
// digested statistics — the fast path stays bit-exact with the structural
// simulation either way.
func (b *Block) SetObs(r *obs.Registry) {
	b.rf.SetObs(r)
	if r == nil {
		b.obsBitsFast, b.obsBitsCycle, b.obsWords, b.obsSeqs = nil, nil, nil, nil
		return
	}
	const bitsHelp = "bits ingested by the hardware testing block, by ingest path"
	b.obsBitsFast = r.Counter("trng_ingest_bits_total", bitsHelp, "path", FastPath.String())
	b.obsBitsCycle = r.Counter("trng_ingest_bits_total", bitsHelp, "path", CycleAccurate.String())
	b.obsWords = r.Counter("trng_ingest_words_total",
		"word-level transfers into the fast-path functional model (up to 64 bits each)")
	b.obsSeqs = r.Counter("trng_ingest_sequences_total",
		"complete N-bit sequences absorbed by the testing block")
}

// Path reports the active ingest path.
func (b *Block) Path() IngestPath { return b.path }

// SetPath selects the ingest path. Switching is only allowed at a sequence
// boundary — before any bit of the next sequence has been clocked in.
// The cycle-accurate path takes over a fresh sequence from a power-on
// netlist, which the fast path's Reset leaves alone.
func (b *Block) SetPath(p IngestPath) error {
	if p == b.path {
		return nil
	}
	if p == FastPath && b.fast == nil {
		return fmt.Errorf("hwblock: design %s has no fast-path model", b.m.cfg.Name)
	}
	if b.bits != 0 && !b.done {
		return fmt.Errorf("hwblock: cannot switch ingest path %d bits into a sequence", b.bits)
	}
	b.path = p
	if p == CycleAccurate && b.bits == 0 {
		b.resetNetlist()
		b.dirty = false
	}
	return nil
}

// SetSliced selects bit-sliced assist mode for the fast path: the four
// word-parallelizable engines (walk/cusum, runs, block frequency, longest
// run) are maintained externally by a 64-stream lane group
// (internal/hwslice) and ClockWord advances only the bit position and the
// residual per-stream-order engines (templates, serial). Enabling it
// requires the fast path and a sequence boundary; the lane group hands the
// engine state back through LoadWordStats, which returns the block to
// normal ingest. Disabling is allowed any time (it is what LoadWordStats
// does implicitly). Like the ingest path, the mode survives Reset: it is a
// property of how the block is driven, not of the sequence in flight.
//
// While sliced, the register-file image of the four assisted engines is
// stale (the group holds their state); the fleet layer only evaluates
// after LoadWordStats, so a monitored stream never observes the staleness.
func (b *Block) SetSliced(on bool) error {
	if !on {
		if b.fast != nil {
			b.fast.SetExternal(false)
		}
		return nil
	}
	if b.path != FastPath || b.fast == nil {
		return fmt.Errorf("hwblock: bit-sliced assist requires the fast ingest path")
	}
	if b.bits != 0 && !b.done {
		return fmt.Errorf("hwblock: cannot enter bit-sliced assist %d bits into a sequence", b.bits)
	}
	b.flushPending()
	b.fast.SetExternal(true)
	return nil
}

// Sliced reports whether bit-sliced assist mode is active.
func (b *Block) Sliced() bool { return b.fast != nil && b.fast.External() }

// LoadWordStats hands the externally maintained sliceable-engine state back
// to the fast-path model (see hwfast.LoadWordStats) and marks the register
// image dirty so the next bus read republishes from the restored state.
// The block leaves assist mode: subsequent ClockWord calls ingest fully.
// Bits the hand-back fast-forwards over (a residual-free sliced stream
// skips ClockWord between boundaries) are accounted as fast-path ingest.
func (b *Block) LoadWordStats(ws *hwfast.WordStats) error {
	if b.path != FastPath || b.fast == nil {
		return fmt.Errorf("hwblock: word-stats hand-back requires the fast ingest path")
	}
	if b.pendN != 0 {
		return fmt.Errorf("hwblock: %d bits pending in the per-bit buffer", b.pendN)
	}
	pre := b.fast.BitsSeen()
	if err := b.fast.LoadWordStats(ws); err != nil {
		return err
	}
	if d := b.fast.BitsSeen() - pre; d > 0 {
		b.bits += d
		b.obsBitsFast.Add(uint64(d))
	}
	b.dirty = true
	return nil
}

// Config returns the block's design configuration.
func (b *Block) Config() Config { return b.m.cfg }

// N returns the sequence length, without the copy of the whole design
// configuration that Config makes.
//
//trnglint:hotpath
func (b *Block) N() int { return b.m.cfg.N }

// RegMap returns the design's register map, which the block shares with
// every block built on it.
func (b *Block) RegMap() *RegMap { return b.m }

// Netlist returns the structural inventory, the input to the area model.
func (b *Block) Netlist() *hwsim.Netlist { return b.nl }

// RegFile returns the memory-mapped register file.
func (b *Block) RegFile() *RegFile { return &b.rf }

// BitsSeen reports how many bits have been clocked in since reset.
//
//trnglint:hotpath
func (b *Block) BitsSeen() int { return b.bits }

// Done reports whether the block has absorbed a full N-bit sequence (and
// run its end-of-sequence finalization).
func (b *Block) Done() bool { return b.done }

// Clock feeds one bit into the block — the operation the hardware performs
// in a single clock cycle ("after receiving each random bit from the
// generator, all update calculations finish within one clock cycle"). On
// the fast path the bit lands in a pending-word buffer that flushes into
// the functional model 64 bits at a time; on the cycle-accurate path it
// clocks the structural netlist directly.
func (b *Block) Clock(bit byte) error {
	if b.path != FastPath || b.fast == nil {
		return b.clockStructural(bit)
	}
	if b.done {
		return fmt.Errorf("hwblock: sequence complete; Reset before feeding more bits")
	}
	b.pendW |= uint64(bit&1) << uint(b.pendN)
	b.pendN++
	b.bits++
	b.dirty = true
	if b.pendN == 64 || b.bits == b.m.cfg.N {
		b.flushPending()
	}
	return nil
}

// ClockWord feeds nbits bits (1..64) in one call; bit i of w is the i-th
// bit chronologically, matching bitstream.Sequence packing. On the
// cycle-accurate path it decomposes into per-bit clocks.
func (b *Block) ClockWord(w uint64, nbits int) error {
	if b.done {
		return fmt.Errorf("hwblock: sequence complete; Reset before feeding more bits")
	}
	if nbits < 1 || nbits > 64 {
		return fmt.Errorf("hwblock: word size %d out of range [1,64]", nbits)
	}
	if b.path != FastPath || b.fast == nil {
		for i := 0; i < nbits; i++ {
			if err := b.clockStructural(byte(w >> uint(i))); err != nil {
				return err
			}
		}
		return nil
	}
	b.flushPending()
	if err := b.fast.ClockWord(w, nbits); err != nil {
		return err
	}
	b.bits += nbits
	b.dirty = true
	b.obsBitsFast.Add(uint64(nbits))
	b.obsWords.Inc()
	if b.fast.Done() {
		b.seqDone()
	}
	return nil
}

// Errors of the burst entry point ClockWords. They are preallocated so
// that a rejected burst allocates nothing.
var (
	errBurstDone = errors.New("hwblock: sequence complete; Reset before feeding more bits")
	errBurstLong = errors.New("hwblock: word burst passes the end of the sequence")
)

// ClockWords feeds a burst of whole 64-bit words, ws[0] first, as
// ClockWord(w, 64) would word by word, with the checks made once for the
// whole burst: the words must fit in what remains of the sequence (a
// burst may end exactly at its end), and a rejected burst clocks nothing.
// On the fast path the ingest counters advance once per call, by the same
// totals the per-word feed adds. The cycle-accurate path clocks the words
// one by one through ClockWord.
//
//trnglint:hotpath
func (b *Block) ClockWords(ws []uint64) error {
	if b.done {
		return errBurstDone
	}
	if len(ws) > (b.m.cfg.N-b.bits)/64 {
		return errBurstLong
	}
	if b.path != FastPath || b.fast == nil {
		for _, w := range ws {
			if err := b.ClockWord(w, 64); err != nil { //trnglint:alloc cycle-accurate reference path: the per-bit netlist simulation, never a bit-sliced lane's (those require the fast path)
				return err
			}
		}
		return nil
	}
	b.flushPending()
	if err := b.fast.ClockWords(ws); err != nil {
		return err
	}
	n := 64 * len(ws)
	b.bits += n
	b.dirty = true
	b.obsBitsFast.Add(uint64(n))
	b.obsWords.Add(uint64(len(ws)))
	if b.fast.Done() {
		b.seqDone()
	}
	return nil
}

// flushPending drains the per-bit buffer into the functional model.
func (b *Block) flushPending() {
	if b.pendN == 0 {
		return
	}
	w, n := b.pendW, b.pendN
	b.pendW, b.pendN = 0, 0
	if err := b.fast.ClockWord(w, n); err != nil {
		// Unreachable: every pending bit was validated on acceptance.
		panic(err)
	}
	b.obsBitsFast.Add(uint64(n))
	b.obsWords.Inc()
	if b.fast.Done() {
		b.seqDone()
	}
}

// seqDone marks the sequence complete and counts it.
func (b *Block) seqDone() {
	b.done = true
	b.obsSeqs.Inc()
}

// publish loads the functional model's scalars (the bit count, the walk
// triple and the runs counter) into the structural primitives so the
// register file presents the exact image the bit-serial hardware would
// hold after the same stream prefix. The counter banks share the model's
// storage, so they need no copy, only the serial banks' lazy marginals a
// sync. It runs lazily, from the register file's prepare hook, and only
// when fast-path clocks or a Reset have landed since the last publish.
func (b *Block) publish() {
	if !b.dirty {
		return
	}
	b.flushPending()
	b.dirty = false
	b.global.Load(uint64(b.bits))
	final, min, max := b.fast.Walk()
	b.walk.s.Load(final)
	b.walk.ext.Load(min, max)
	if b.runs != nil {
		b.runs.runs.Load(b.fast.Runs())
	}
	if b.serial != nil {
		b.fast.SerialCounts(0) // brings the narrower banks up to date
	}
}

// clockStructural feeds one bit into every structural engine — one clock
// cycle of the golden-reference netlist simulation.
func (b *Block) clockStructural(bit byte) error {
	if b.done {
		return fmt.Errorf("hwblock: sequence complete; Reset before feeding more bits")
	}
	bit &= 1
	t := b.bits

	b.walk.clock(bit)
	if b.runs != nil {
		b.runs.clock(bit, t)
	}
	if b.blockFreq != nil {
		b.blockFreq.clock(bit, t)
	}
	if b.longestRun != nil {
		b.longestRun.clock(bit, t)
	}
	if b.shift != nil {
		b.shift.Shift(bit)
	}
	if b.nonOv != nil {
		b.nonOv.clock(t)
	}
	if b.overlap != nil {
		b.overlap.clock(t)
	}
	if b.serial != nil {
		b.serial.clock(bit)
	}

	b.global.Inc()
	b.bits++
	b.obsBitsCycle.Inc()
	if b.bits == b.m.cfg.N {
		b.finalize()
	}
	return nil
}

// finalize runs the end-of-sequence fixups (the serial test's cyclic
// wrap-around feed).
func (b *Block) finalize() {
	if b.serial != nil {
		b.serial.finalize()
	}
	b.seqDone()
}

// Run drains exactly N bits from src into the block. When the fast path is
// active and the source supports word reads (bitstream.WordReader), the
// stream is ingested 64 bits per call; otherwise it falls back to per-bit
// reads.
func (b *Block) Run(src bitstream.BitReader) error {
	if b.path == FastPath && b.fast != nil {
		if wr, ok := src.(bitstream.WordReader); ok {
			return b.runWords(wr)
		}
	}
	for !b.done {
		bit, err := src.ReadBit()
		if err != nil {
			return fmt.Errorf("hwblock: source failed after %d bits: %w", b.bits, err)
		}
		if err := b.Clock(bit); err != nil {
			return err
		}
	}
	return nil
}

// runWords is the word-level ingest loop behind Run.
func (b *Block) runWords(wr bitstream.WordReader) error {
	b.flushPending()
	for !b.done {
		take := b.m.cfg.N - b.bits
		if take > 64 {
			take = 64
		}
		w, got, err := wr.ReadWord64(take)
		if got > 0 {
			if cerr := b.ClockWord(w, got); cerr != nil {
				return cerr
			}
		}
		if err != nil && !b.done {
			return fmt.Errorf("hwblock: source failed after %d bits: %w", b.bits, err)
		}
	}
	return nil
}

// Reset returns every engine to its power-on state so the next sequence can
// begin. On the fast path only the functional model is reset: the counter
// banks share its storage, the scalars the register file exposes are
// republished from it on the next read, and the rest of the netlist is
// idle until SetPath hands the block to the cycle-accurate path.
func (b *Block) Reset() {
	if b.path == CycleAccurate {
		b.resetNetlist()
	}
	if b.fast != nil {
		b.fast.Reset()
	}
	b.pendW, b.pendN = 0, 0
	b.dirty = b.path == FastPath
	b.bits = 0
	b.done = false
}

// resetNetlist returns the structural engines to their power-on state.
func (b *Block) resetNetlist() {
	b.nl.Reset()
	if b.nonOv != nil {
		b.nonOv.resetLocal()
	}
	if b.serial != nil {
		b.serial.resetLocal()
	}
}
