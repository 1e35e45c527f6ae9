// Package hwfast is a word-level functional model of the hardware testing
// block: it digests the TRNG stream 64 bits at a time and produces exactly
// the statistics the structural simulation (internal/hwsim driven by
// internal/hwblock) accumulates one clock at a time.
//
// The cycle-accurate netlist remains the golden reference; this model is
// the throughput engine. The two are proven bit-exact over the full
// register-file image by the differential equivalence suite (exhaustive
// structured corpora at n=128, randomized streams and the
// FuzzFastPathEquivalence fuzz target at n=65536, one randomized pass at
// n=2^20 — all eight Table III design points).
//
// The walk fold (Walk) and the block-frequency and longest-run in-flight
// blocks (BlockFreq, LongestRun) are exported: internal/online's sliding
// tracker runs these same engines, so the netlist-equivalence suite checks
// the code both consumers use. The byte-walk table behind Walk is the
// module's only one: internal/hwslice's tile kernel reads its packed
// entries through WalkByte, and the kernel's odd tile calls Walk itself.
//
// Word-level techniques, per engine:
//
//   - ones / cumulative sums (tests 1, 13): a 256-entry byte table carries
//     the walk delta and the intra-byte prefix extrema, packed into one
//     uint32, so the ±1 random walk and its S_min/S_max registers advance
//     eight clocks per lookup; a whole word folds its eight entries as a
//     balanced tree of builtin max, with no data-dependent branch.
//   - runs (test 3): transitions inside a word are popcount(w XOR w>>1);
//     only the seam bit between words is handled individually.
//   - block frequency (test 2): per-block ones counts are popcounts of
//     block-aligned sub-masks (every block length is a power of two).
//   - longest run of ones (test 4): chunk merging — leading/trailing run
//     lengths come from trailing/leading-zero counts of the complement,
//     the interior maximum from hi fixed run-length erosion steps
//     (x &= x>>1). Like the netlist's lr_run and lr_max registers, the
//     carried run and the block maximum saturate at the top class bound
//     hi, so the word needs no data-dependent exit.
//   - shared pattern context (tests 7, 8, 11, 12): as in the hardware,
//     one 9-bit pattern shift register feeds the template and serial
//     engines; the model keeps its eight older bits as a context
//     register, read with the word as one 128-bit value.
//   - template tests (7, 8): the match bitmaps (bit t set iff the 9-bit
//     window ending at t equals the template) are erosions of the word
//     and of its complement by 1, 2 and 4 (erode8); validity masking, the
//     non-overlapping hold-off scan and the saturating per-block counts
//     then touch only the set bits, and only in the words that need them:
//     inside a block, a word without a non-overlapping match just
//     advances the block position, and past a block's first eight
//     positions the overlapping count adds the word's popcount in place.
//   - serial / approximate entropy (11, 12): the hardware's parallel
//     pattern counters as eight lane-set counts per word, the windows
//     with ones on every lane of each lane set that holds the newest bit
//     (countLaneSets); at readout a shift, an edge correction and a
//     Möbius pass rebuild the m-bit bank from them (serialSync), and the
//     narrower banks are its marginals. Warm-up fill gating is a valid
//     mask.
//
// These are the only window shapes: 9-bit templates with B = 000000001
// and serial m = 4, as every nist.RecommendedParams design has. New
// rejects any other, and hwblock runs such a design cycle-accurate.
//
//trnglint:deterministic
package hwfast

import (
	"fmt"

	"repro/internal/nist"
)

// State is the functional model of one testing-block design. Feed it
// exactly N bits with ClockWord (or Clock); read the accumulated raw
// statistics through the accessors. All counters mirror — at every bit
// boundary — the values the structural engines would hold after the same
// prefix of the stream.
type State struct {
	n    int
	bits int

	// Flags, packed together: a bool per engine group padded to eight
	// bytes would push State out of its 480-byte size class (one State
	// per stream). external marks the word-parallelizable engines
	// (walk/cusum, runs, block frequency, longest run) as externally
	// maintained: ClockWord still validates, advances the bit position
	// and runs the residual per-stream engines (templates, serial), but
	// skips the four sliceable engines — a bit-sliced lane group
	// (internal/hwslice) advances them for 64 streams at once and hands
	// the state back via LoadWordStats. It is a mode, not state: Reset
	// preserves it. The has flags select the engines the design
	// implements.
	done, external                              bool
	hasRuns, hasBF, hasLR, hasNO, hasOV, hasSer bool
	serSynced                                   bool // ν banks up to date (see serialSync)
	serCyclic                                   bool // wrap-around feed applied: the counts are cyclic

	// cumulative-sums walk (tests 1, 3, 13): current value and extrema.
	s, sMin, sMax int64

	// runs (test 3)
	runs uint64
	prev byte

	// block frequency (test 2): in-flight block and completed blocks
	bf     BlockFreq
	bfBank []uint64
	bfCur  int

	// longest run of ones (test 4): in-flight block and class counters
	lr        LongestRun
	lrClasses []uint64

	// shared pattern context for the template and serial engines: the
	// last ctxW bits before the current word, chronological (oldest at
	// bit 0).
	ctx uint64

	// non-overlapping template (test 7)
	noBlockLen int
	noNBlocks  int
	noPos      int // bits into the current block
	noNext     int // first in-block position allowed to match (hold-off)
	noW        uint64
	noBank     []uint64
	noCur      int

	// overlapping template (test 8)
	ovBlockLen int
	ovPos      int
	ovOcc      int
	ovClasses  []uint64

	// serial / approximate entropy (tests 11, 12): the lane-set counters
	// the per-word kernel feeds (serQ[i] counts the windows whose lane 0
	// and lanes {k+1 : bit k of i} are all ones; see countLaneSets), the
	// sequence head for the wrap-around feed, and the pattern banks
	// serialSync rebuilds from them.
	serQ    [8]uint64
	serHead uint64      // first m-1 bits of the sequence, chronological
	serNu   [3][]uint64 // widths m, m-1, m-2
}

// The window shapes the model has (see the package doc): the template
// length, the non-overlapping template and the serial pattern length.
// The context holds the eight bits a 9-bit window reaches back; the serial
// windows read its newest three.
const (
	tplM = 9
	tplB = 0b000000001
	serM = 4
	ctxW = tplM - 1
)

// ovK is the overlapping test's top occurrence class: a block's count
// saturates there (classes ν_0…ν_5).
const ovK = 5

// New builds the functional model for a design of n bits implementing the
// given SP800-22 test subset with parameters p — the same inputs
// hwblock.New derives its engines from. Window shapes other than the
// model's (tplM, tplB, serM) are an error.
func New(n int, tests []int, p nist.Params) (*State, error) {
	if n < 8 {
		return nil, fmt.Errorf("hwfast: sequence length %d too small", n)
	}
	has := func(id int) bool {
		for _, t := range tests {
			if t == id {
				return true
			}
		}
		return false
	}
	// A block parameter below 1 would divide by zero or never close a
	// block; hwblock.Config.CheckParams rejects the same designs.
	for _, f := range []struct {
		test int
		name string
		v    int
	}{
		{2, "BlockFrequencyM", p.BlockFrequencyM},
		{4, "LongestRunM", p.LongestRunM},
		{7, "NonOverlappingN", p.NonOverlappingN},
		{8, "OverlappingM", p.OverlappingM},
	} {
		if has(f.test) && f.v < 1 {
			return nil, fmt.Errorf("hwfast: %s = %d, want at least 1", f.name, f.v)
		}
	}
	if has(7) && p.NonOverlappingN > n {
		return nil, fmt.Errorf("hwfast: NonOverlappingN = %d leaves no bit per block of an %d-bit sequence", p.NonOverlappingN, n)
	}
	st := &State{n: n, hasRuns: has(3)}
	if has(2) {
		if n%p.BlockFrequencyM != 0 {
			return nil, fmt.Errorf("hwfast: block frequency M=%d does not divide n=%d", p.BlockFrequencyM, n)
		}
		st.hasBF = true
		st.bf = NewBlockFreq(p.BlockFrequencyM)
		st.bfBank = make([]uint64, n/p.BlockFrequencyM)
	}
	if has(4) {
		lr, err := NewLongestRun(p.LongestRunM)
		if err != nil {
			return nil, err
		}
		lo, hi := lr.Bounds()
		st.hasLR = true
		st.lr = lr
		st.lrClasses = make([]uint64, hi-lo+1)
	}
	if (has(7) || has(8)) && p.TemplateM != tplM {
		return nil, fmt.Errorf("hwfast: template length %d; the model has only %d-bit windows", p.TemplateM, tplM)
	}
	if has(7) {
		if p.TemplateB != tplB {
			return nil, fmt.Errorf("hwfast: non-overlapping template %0*b; the model has only %0*b", tplM, p.TemplateB, tplM, tplB)
		}
		st.hasNO = true
		st.noNBlocks = p.NonOverlappingN
		st.noBlockLen = n / p.NonOverlappingN
		st.noBank = make([]uint64, p.NonOverlappingN)
	}
	if has(8) {
		st.hasOV = true
		st.ovBlockLen = p.OverlappingM
		st.ovClasses = make([]uint64, ovK+1)
	}
	if has(11) || has(12) {
		if p.SerialM != serM {
			return nil, fmt.Errorf("hwfast: serial pattern length %d; the model has only m = %d", p.SerialM, serM)
		}
		st.hasSer = true
		for i := range st.serNu {
			st.serNu[i] = make([]uint64, 1<<(serM-i))
		}
	}
	return st, nil
}

// N returns the sequence length.
func (st *State) N() int { return st.n }

// BitsSeen reports how many bits have been ingested since reset.
func (st *State) BitsSeen() int { return st.bits }

// Done reports whether a full N-bit sequence has been absorbed (including
// the end-of-sequence wrap-around feed of the serial test).
//
//trnglint:hotpath
func (st *State) Done() bool { return st.done }

// Walk returns the cumulative-sums state: the current walk value S and the
// running extrema (the S_FINAL/S_MIN/S_MAX registers before offset-binary
// encoding).
func (st *State) Walk() (final, min, max int64) { return st.s, st.sMin, st.sMax }

// Runs returns the runs counter (test 3).
func (st *State) Runs() uint64 { return st.runs }

// BlockFreqBank returns the per-block ones counts ε_1..ε_N (test 2).
// The slice is live; callers must not modify it.
func (st *State) BlockFreqBank() []uint64 { return st.bfBank }

// LongestRunClasses returns the longest-run class counters ν (test 4).
func (st *State) LongestRunClasses() []uint64 { return st.lrClasses }

// NonOverlapBank returns the per-block template occurrence counts W_i
// (test 7).
func (st *State) NonOverlapBank() []uint64 { return st.noBank }

// OverlapClasses returns the overlapping-template class counters ν_0..ν_5
// (test 8).
func (st *State) OverlapClasses() []uint64 { return st.ovClasses }

// SerialCounts returns the pattern counter bank for width index i
// (0 → m bits, 1 → m-1, 2 → m-2). The narrower banks are maintained
// lazily; reading any of them brings all three up to date.
func (st *State) SerialCounts(i int) []uint64 {
	st.serialSync()
	return st.serNu[i]
}

// Clock ingests a single bit — the per-bit convenience entry point;
// ClockWord is the throughput path.
func (st *State) Clock(bit byte) error { return st.ClockWord(uint64(bit&1), 1) }

// SetExternal selects whether the sliceable engines (walk/cusum, runs,
// block frequency, longest run) are maintained externally; see the field
// comment. Enabling it mid-sequence leaves the already-accumulated internal
// state frozen, so callers normally switch at a sequence boundary and
// return via LoadWordStats (which clears the flag).
func (st *State) SetExternal(on bool) { st.external = on }

// External reports whether the sliceable engines are externally maintained.
func (st *State) External() bool { return st.external }

// WordStats is the transferable state of the four word-parallelizable
// engines at an arbitrary bit position — everything a bit-sliced lane group
// must hand back for this model to resume exact per-bit ingest, and
// everything this model exports for a differential comparison. Fill
// positions (block offsets) are not part of the transfer: they are derived
// from Bits, because every block length divides the sequence position
// stream ("block detection" — block boundaries are bits of the global
// counter).
type WordStats struct {
	// Bits is the absolute bit position the statistics correspond to.
	Bits int
	// S, SMin and SMax are the cumulative-sums walk value and extrema.
	S, SMin, SMax int64
	// Runs is the runs counter; Prev is the previous (latest) bit, which
	// seeds the next seam comparison.
	Runs uint64
	Prev byte
	// BFEps is the ones count of the in-flight block-frequency block;
	// BFBank holds the completed blocks' counts.
	BFEps  uint64
	BFBank []uint64
	// LRRun is the length of the ones run ending at the last bit, LRBlkMax
	// the longest run seen in the in-flight block, both saturated at the
	// top class bound hi like the netlist's lr_run and lr_max registers;
	// LRClasses holds the completed blocks' class counters.
	LRRun, LRBlkMax int
	LRClasses       []uint64
}

// ExportWordStats fills ws with the sliceable-engine state at the current
// bit position. Bank slices are resized in place (allocation-free once ws
// has warmed up to the design's bank sizes).
func (st *State) ExportWordStats(ws *WordStats) {
	ws.Bits = st.bits
	ws.S, ws.SMin, ws.SMax = st.s, st.sMin, st.sMax
	ws.Runs, ws.Prev = st.runs, st.prev
	ws.BFEps = st.bf.eps
	ws.BFBank = append(ws.BFBank[:0], st.bfBank...)
	ws.LRRun, ws.LRBlkMax = st.lr.run, st.lr.blkMax
	ws.LRClasses = append(ws.LRClasses[:0], st.lrClasses...)
}

// Residual reports whether the design has per-stream-order engines that
// keep running in external mode (templates, serial). A residual-free
// external model is fully idle between hand-backs, so nothing at all needs
// to be clocked through it mid-sequence.
func (st *State) Residual() bool { return st.hasNO || st.hasOV || st.hasSer }

// LoadWordStats restores the sliceable-engine state from ws and returns the
// model to internal ingest (clearing the external flag): the next ClockWord
// continues exactly as if every bit had been ingested internally. ws.Bits
// must equal the model's bit position — in external mode the position kept
// advancing, only the four engines stood still — and the bank lengths must
// match the design. Fill positions are rederived from Bits.
//
// One exception: an external model with no residual engines has nothing to
// clock between hand-backs, so its driver may skip ClockWord entirely and
// let the hand-back fast-forward the position — ws.Bits may then lie ahead
// of the model's, anywhere short of the sequence end.
func (st *State) LoadWordStats(ws *WordStats) error {
	if ws.Bits != st.bits {
		if !st.external || st.Residual() || ws.Bits < st.bits || ws.Bits >= st.n {
			return fmt.Errorf("hwfast: word stats are for bit %d, model is at bit %d", ws.Bits, st.bits)
		}
		st.bits = ws.Bits
	}
	st.s, st.sMin, st.sMax = ws.S, ws.SMin, ws.SMax
	if st.hasRuns {
		st.runs, st.prev = ws.Runs, ws.Prev
	}
	if st.hasBF {
		if len(ws.BFBank) != len(st.bfBank) {
			return fmt.Errorf("hwfast: block-frequency bank has %d blocks, design wants %d", len(ws.BFBank), len(st.bfBank))
		}
		copy(st.bfBank, ws.BFBank)
		st.bf.eps, st.bf.fill = ws.BFEps, st.bits%st.bf.m
		st.bfCur = st.bits / st.bf.m
	}
	if st.hasLR {
		if len(ws.LRClasses) != len(st.lrClasses) {
			return fmt.Errorf("hwfast: longest-run classes have %d entries, design wants %d", len(ws.LRClasses), len(st.lrClasses))
		}
		copy(st.lrClasses, ws.LRClasses)
		st.lr.run, st.lr.blkMax = ws.LRRun, ws.LRBlkMax
		st.lr.pos = st.bits % st.lr.m
	}
	st.external = false
	return nil
}

// Reset returns the model to its power-on state so the next sequence can
// begin. Allocated banks are retained and zeroed.
func (st *State) Reset() {
	st.bits, st.done = 0, false
	st.s, st.sMin, st.sMax = 0, 0, 0
	st.runs, st.prev = 0, 0
	st.bf.Reset()
	st.bfCur = 0
	zero(st.bfBank)
	st.lr.Reset()
	zero(st.lrClasses)
	st.ctx = 0
	st.noPos, st.noNext, st.noW, st.noCur = 0, 0, 0, 0
	zero(st.noBank)
	st.ovPos, st.ovOcc = 0, 0
	zero(st.ovClasses)
	st.serQ = [8]uint64{}
	st.serHead = 0
	st.serSynced, st.serCyclic = false, false
	for i := range st.serNu {
		zero(st.serNu[i])
	}
}

func zero(s []uint64) {
	for i := range s {
		s[i] = 0
	}
}
