package hwfast

import (
	"fmt"
	"math/bits"

	"repro/internal/nist"
)

// The per-word engines of the two block tests. Each value holds one
// in-flight block; Feed consumes bits up to the next block end and reports
// the closed block, so one engine serves both a fixed-window bank (State)
// and a sliding block ring (internal/online) without either copying the
// word-level logic.

// BlockFreq is the in-flight block of the block-frequency engine (test 2):
// the ones count of the first fill bits of an m-bit block.
type BlockFreq struct {
	m, fill int
	eps     uint64
}

// NewBlockFreq returns an empty block-frequency block of length m ≥ 1.
func NewBlockFreq(m int) BlockFreq { return BlockFreq{m: m} }

// Reset empties the in-flight block.
func (b *BlockFreq) Reset() { b.fill, b.eps = 0, 0 }

// Feed consumes the low bits of v (chronological, LSB first; at most nbits
// of them, 1 ≤ nbits ≤ 64) up to the block end and returns how many it
// took. When those bits close the block, closed is true and eps is the
// block's ones count; the next Feed starts a new block. Bits of v above
// take are ignored.
//
//trnglint:hotpath
func (b *BlockFreq) Feed(v uint64, nbits int) (take int, eps uint64, closed bool) {
	take = min(nbits, b.m-b.fill)
	b.eps += uint64(bits.OnesCount64(v & lowMask(take)))
	b.fill += take
	if b.fill < b.m {
		return take, 0, false
	}
	eps = b.eps
	b.fill, b.eps = 0, 0
	return take, eps, true
}

// LongestRun is the in-flight block of the longest-run-of-ones engine
// (test 4). Like the hardware's run counter, run tracking restarts at
// every block boundary, and, like the netlist's lr_run and lr_max
// registers, the run and the block maximum saturate at the top class
// bound hi: every run of hi or more lands in the same class.
type LongestRun struct {
	m, lo, hi int
	pos       int // bits into the in-flight block
	run       int // length of the ones run ending at the last bit, saturated at hi
	blkMax    int // longest run seen in the in-flight block, saturated at hi
}

// NewLongestRun returns an empty longest-run block of length m, with the
// class bounds nist.LongestRunClassBounds assigns to m.
func NewLongestRun(m int) (LongestRun, error) {
	lo, hi, err := nist.LongestRunClassBounds(m)
	if err != nil {
		return LongestRun{}, fmt.Errorf("hwfast: %w", err)
	}
	return LongestRun{m: m, lo: lo, hi: hi}, nil
}

// Bounds returns the class bounds: runs up to lo share class 0, runs of
// hi or more class hi − lo.
func (b *LongestRun) Bounds() (lo, hi int) { return b.lo, b.hi }

// Reset empties the in-flight block.
func (b *LongestRun) Reset() { b.pos, b.run, b.blkMax = 0, 0, 0 }

// Feed consumes the low bits of v (chronological, LSB first; at most nbits
// of them, 1 ≤ nbits ≤ 64) up to the block end and returns how many it
// took. The word is merged in one step with no data-dependent branch:
// the leading and trailing run lengths come from complement zero counts,
// and the longest run inside the word, saturated at hi, from hi fixed
// run-length erosion steps (x &= x>>1 shortens every run by one). When
// those bits close the block, closed is true and class is the block's
// longest run clamped to [lo, hi] and offset by lo; the next Feed starts a
// new block. Bits of v above take are ignored.
//
//trnglint:hotpath
func (b *LongestRun) Feed(v uint64, nbits int) (take, class int, closed bool) {
	take = min(nbits, b.m-b.pos)
	seg := v & lowMask(take)
	// lead is take exactly when the segment is all ones (the bits of ^seg
	// above take are set); tail is then take too.
	lead := bits.TrailingZeros64(^seg)
	tail := bits.LeadingZeros64(^(seg << uint(64-take)))
	// The carried run continues past the segment only if it is all ones:
	// lead−take is negative, and its sign mask clears the carry, otherwise.
	carry := b.run &^ ((lead - take) >> 63)
	// After i erosion steps x is nonzero iff some run is longer than i.
	x, inner := seg, 0
	for range b.hi {
		inner += int((x | -x) >> 63)
		x &= x >> 1
	}
	// The segment's own runs, its trailing one included, are all within
	// inner, and a carried-through run within the carried-in run + lead.
	b.blkMax = max(b.blkMax, min(b.run+lead, b.hi), inner)
	b.run = min(carry+tail, b.hi)
	b.pos += take
	if b.pos < b.m {
		return take, 0, false
	}
	class = max(b.blkMax, b.lo) - b.lo // blkMax is saturated at hi
	b.Reset()
	return take, class, true
}
