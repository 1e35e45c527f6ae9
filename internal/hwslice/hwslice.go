// Package hwslice is the bit-sliced ingest engine: it advances the four
// word-parallelizable statistics of up to 64 streams at once by operating
// on 64-bit tiles — one lane-major word per stream, exactly as each stream
// produced it.
//
// The sliceable subset is exactly the engines hwfast can freeze in external
// mode: the cumulative-sums walk with its extrema (tests 1, 3, 13 inputs),
// the runs counter (test 3), block frequency (test 2) and longest run of
// ones (test 4). One tile-rate engine (fast.go) computes them: it hoists
// per-bit work to per-word work — a fold of hwfast's byte-walk table
// (hwfast.WalkByte) with a near/far lane split for the walk, POPCNT-based
// runs and block frequency, and a word-parallel doubling test for longest
// run, whose carried run and block maximum saturate at the top class bound
// as the netlist's lr_run and lr_max registers do. Its one hot kernel takes tiles in pairs; the odd tile of a burst
// takes a short per-lane pass through hwfast.Walk and run-length erosion.
// Block lengths must divide 64 or be multiples of 64, so every block
// boundary falls on a word boundary: a sub-tile block opens and closes
// inside one word, a long block closes at a tile boundary.
//
// The residual per-stream engines (templates, serial) are NOT computed
// here: callers feed the same lane-major words to each stream's own
// hwfast model in external mode (the "lazy de-transposition" of DESIGN.md
// §6.2). ExtractLane hands a lane's sliceable state back as
// hwfast.WordStats, bit-exact with what internal ingest of the same prefix
// would hold, so a stream can leave the group at any tile boundary and
// resume serially.
//
// hwslice is pure word arithmetic over caller-supplied tiles — no clocks,
// no randomness, no map iteration — and carries the repository's
// determinism contract. It deliberately does not carry //trnglint:bus16:
// it models no MSP430-visible registers; the 16-bit bus discipline applies
// to the structural simulator and firmware layers it is differentially
// tested against, not to this host-side engine.
//
//trnglint:deterministic
package hwslice

import (
	"fmt"
	"math/bits"

	"repro/internal/hwfast"
	"repro/internal/nist"
)

// Group advances the sliceable statistics of up to 64 streams over one
// shared design (n bits, test subset, parameters). Lanes attach at a
// sequence boundary (offset zero) and may detach at any tile boundary.
//
// The engine works on lanes 0 … h, h the highest attached lane, so a
// tile costs h+1 lanes' work, not 64: a group holding only lane 0 pays
// for one lane. Columns above h are never read or written; a lane can
// only attach at offset zero, after New, Rollover or Reset, which all
// clear every column, so a lane above the old bound starts clean.
// Detached lanes below h are not masked out: a stale slot updates
// independently and is never read (ExtractLane is only called for
// attached lanes), and every bound below holds for arbitrary bit
// patterns — the distances grow at most 2n and the extrema counters at
// most n per sequence, run lengths saturate at the top class bound — so
// stale lanes can neither overflow a counter nor perturb a live one.
// Rollover clears them.
type Group struct {
	n      int
	off    int    // bits absorbed in the current sequence (multiple of 64)
	active uint64 // mask of attached lanes

	// cumulative-sums walk: distances to the extrema plus monotone
	// extrema counters, one scalar per lane.
	dMin  [64]uint32 // s − sMin; ≤ 2n
	dMax  [64]uint32 // sMax − s; ≤ 2n
	drops [64]uint32 // −sMin; ≤ n
	rises [64]uint32 // sMax; ≤ n

	hasRuns bool
	runs    [64]uint32 // per-lane runs counter
	prevT   uint64     // previous tile's last-bit mask (seam + ws.Prev)

	// Block frequency (bfM > 0): a block of 64 bits or more accumulates
	// in bfEps and lands in the bank at its tile-aligned end; a shorter
	// block closes inside its word and goes straight to the bank.
	bfM    int
	bfLong bool       // bfM ≥ 64; see New
	bfEps  [64]uint32 // ones in the in-flight block (bfM ≥ 64 only)
	bfBank []uint32   // n/bfM blocks × 64 lanes; blocks < off/bfM are live

	// Longest run (lrM > 0): blocks of 64 bits or more carry an open run
	// and the block maximum across words; shorter blocks classify straight
	// from the word. Completed blocks count into per-class counters, so no
	// per-block bank exists and extraction is O(1) in the block count.
	lrM        int
	lrLong     bool // lrM ≥ 64; see New
	lrLo, lrHi int
	lrMax      [64]uint32     // longest ones run in the in-flight block, saturated at lrHi
	lrRun      [64]uint32     // ones run ending at the last absorbed bit, saturated at lrHi
	lrCls      [64 * 8]uint32 // per-lane × class completed-block counts
}

// New builds a lane group for a design of n bits implementing the given
// SP800-22 test subset with parameters p — the same inputs hwfast.New
// takes, restricted to word granularity: n must be a multiple of 64 below
// 2^31 (the per-lane counters are 32 bits wide and the walk distances
// reach 2n), and every block length must divide 64 or be a multiple of it.
func New(n int, tests []int, p nist.Params) (*Group, error) {
	if n < 64 || n%64 != 0 {
		return nil, fmt.Errorf("hwslice: sequence length %d is not a positive multiple of 64", n)
	}
	if int64(n) >= 1<<31 {
		return nil, fmt.Errorf("hwslice: sequence length %d overflows the 32-bit lane counters (2n must stay below 2^32)", n)
	}
	has := func(id int) bool {
		for _, t := range tests {
			if t == id {
				return true
			}
		}
		return false
	}
	g := &Group{n: n, hasRuns: has(3)}
	if has(2) {
		m := p.BlockFrequencyM
		if m < 1 || n%m != 0 {
			return nil, fmt.Errorf("hwslice: block frequency M=%d does not divide n=%d", m, n)
		}
		if !wordAligned(m) {
			return nil, fmt.Errorf("hwslice: block frequency M=%d neither divides 64 nor is a multiple of 64", m)
		}
		g.bfM = m
	}
	if has(4) {
		m := p.LongestRunM
		lo, hi, err := nist.LongestRunClassBounds(m)
		if err != nil {
			return nil, fmt.Errorf("hwslice: %w", err)
		}
		if n%m != 0 {
			return nil, fmt.Errorf("hwslice: longest-run M=%d does not divide n=%d", m, n)
		}
		if !wordAligned(m) {
			return nil, fmt.Errorf("hwslice: longest-run M=%d neither divides 64 nor is a multiple of 64", m)
		}
		g.lrM = m
		g.lrLo, g.lrHi = lo, hi
	}
	if g.bfM > 0 {
		g.bfBank = make([]uint32, n/g.bfM*64)
	}
	// The chunk loop handles blocks of 64 bits or more. absorbChunk reads
	// these flags rather than comparing bfM and lrM itself: the comparisons
	// cost its pair loop a register, and the extra spill measured about
	// 3 % slower end to end on n65536-light.
	g.bfLong, g.lrLong = g.bfM >= 64, g.lrM >= 64
	return g, nil
}

// wordAligned reports whether every block of length m starts and ends on a
// word boundary or inside a single word.
func wordAligned(m int) bool { return 64%m == 0 || m%64 == 0 }

// N returns the design's sequence length in bits.
//
//trnglint:hotpath
func (g *Group) N() int { return g.n }

// Off returns the bit offset into the current sequence (a tile multiple).
//
//trnglint:hotpath
func (g *Group) Off() int { return g.off }

// Active returns the mask of attached lanes.
//
//trnglint:hotpath
func (g *Group) Active() uint64 { return g.active }

// Lanes returns the number of attached lanes.
func (g *Group) Lanes() int { return bits.OnesCount64(g.active) }

// Attach claims a lane for a new stream. Lanes join only at a sequence
// boundary — mid-sequence the counters already encode a prefix the
// newcomer never produced.
func (g *Group) Attach(lane int) error {
	if lane < 0 || lane > 63 {
		return fmt.Errorf("hwslice: lane %d out of range", lane)
	}
	if g.off != 0 {
		return fmt.Errorf("hwslice: lane %d cannot attach at bit offset %d", lane, g.off)
	}
	if g.active>>uint(lane)&1 != 0 {
		return fmt.Errorf("hwslice: lane %d already attached", lane)
	}
	g.active |= 1 << uint(lane)
	return nil
}

// Detach releases a lane at any tile boundary. The lane's counters go
// stale but stay inert until Rollover clears them; callers wanting the
// lane's final statistics must ExtractLane before detaching.
func (g *Group) Detach(lane int) {
	g.active &^= 1 << uint(lane)
}

// AbsorbTiles advances every lane by len(tiles)·64 bits. tiles[j][l]
// carries lane l's j-th next 64 chronological bits, LSB first — the words
// exactly as each stream produced them; inactive lanes' bits are ignored.
// The work is proportional to len(tiles) × (highest attached lane + 1):
// columns above the highest attached lane are skipped, so callers keep
// groups packed from lane 0 up.
// The burst is split only at long block-frequency boundaries (blocks of
// many tiles, so the split is rare and chunks stay long); longest-run
// blocks can be as short as one tile, so their boundary work happens
// inline in the chunk loop — splitting on them would chop every burst
// down to nothing. Sub-tile blocks close inside their word in one
// separate per-tile pass. Callers that buffer more than one tile per lane
// (the fleet's lane groups) get most of the engine's throughput headroom
// from passing whole bursts.
//
//trnglint:hotpath
func (g *Group) AbsorbTiles(tiles [][64]uint64) error {
	if g.off+64*len(tiles) > g.n {
		return fmt.Errorf("hwslice: burst of %d tiles overruns sequence (%d of %d bits)", len(tiles), g.off, g.n) //trnglint:alloc argument-validation error path, never taken at line rate
	}
	if (g.bfM > 0 && g.bfM < 64) || (g.lrM > 0 && g.lrM < 64) {
		g.absorbSubBlocks(tiles)
	}
	for len(tiles) > 0 {
		c := len(tiles)
		if g.bfLong {
			if room := (g.bfM - g.off%g.bfM) / 64; room < c {
				c = room
			}
		}
		g.absorbChunk(tiles[:c])
		g.off += 64 * c
		if g.bfLong && g.off%g.bfM == 0 {
			base := (g.off/g.bfM - 1) * 64
			copy(g.bfBank[base:base+64], g.bfEps[:])
			g.bfEps = [64]uint32{}
		}
		tiles = tiles[c:]
	}
	return nil
}

// ExtractLane fills ws with one lane's sliceable-engine state at the
// current offset, in exactly the form hwfast.ExportWordStats would produce
// after internal ingest of the same bits — ready for
// hwfast.LoadWordStats. Bank slices are resized in place.
//
//trnglint:hotpath
func (g *Group) ExtractLane(lane int, ws *hwfast.WordStats) {
	ws.Bits = g.off
	drops := int64(g.drops[lane])
	ws.S = int64(g.dMin[lane]) - drops
	ws.SMin = -drops
	ws.SMax = int64(g.rises[lane])

	ws.Runs, ws.Prev = 0, 0
	if g.hasRuns {
		ws.Runs = uint64(g.runs[lane])
		if g.off > 0 {
			ws.Prev = byte(g.prevT >> uint(lane) & 1)
		}
	}

	ws.BFEps = 0
	ws.BFBank = ws.BFBank[:0]
	if g.bfM > 0 {
		ws.BFEps = uint64(g.bfEps[lane])
		done := g.off / g.bfM
		for b := 0; b < g.n/g.bfM; b++ {
			var v uint64
			if b < done {
				v = uint64(g.bfBank[b*64+lane])
			}
			ws.BFBank = append(ws.BFBank, v) //trnglint:alloc recycled WordStats backing reaches steady-state capacity after the first extraction
		}
	}

	ws.LRRun, ws.LRBlkMax = 0, 0
	ws.LRClasses = ws.LRClasses[:0]
	if g.lrM > 0 {
		ws.LRBlkMax = int(g.lrMax[lane])
		ws.LRRun = int(g.lrRun[lane])
		for c := 0; c <= g.lrHi-g.lrLo; c++ {
			ws.LRClasses = append(ws.LRClasses, uint64(g.lrCls[lane<<3|c])) //trnglint:alloc recycled WordStats backing reaches steady-state capacity after the first extraction
		}
	}
}

// Rollover rearms the group for the next sequence: every counter is
// cleared (including any stale state left by mid-sequence detaches) and
// the offset returns to zero. Attached lanes stay attached. Call it after
// the final tile of a sequence has been absorbed and every lane extracted.
// The block-frequency bank needs no clearing: ExtractLane reads only the
// blocks completed in the current sequence, and each is written before
// its offset is reached.
//
//trnglint:hotpath
func (g *Group) Rollover() {
	g.off = 0
	g.dMin, g.dMax = [64]uint32{}, [64]uint32{}
	g.drops, g.rises = [64]uint32{}, [64]uint32{}
	g.runs = [64]uint32{}
	g.prevT = 0
	g.bfEps = [64]uint32{}
	g.lrMax, g.lrRun = [64]uint32{}, [64]uint32{}
	g.lrCls = [64 * 8]uint32{}
}

// Reset is Rollover plus detaching every lane — the state a recycled group
// must be in before adopting new streams.
func (g *Group) Reset() {
	g.Rollover()
	g.active = 0
}
