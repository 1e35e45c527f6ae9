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
// every block boundary.
type LongestRun struct {
	m, lo, hi int
	pos       int // bits into the in-flight block
	run       int // length of the ones run ending at the last bit
	blkMax    int // longest run seen in the in-flight block
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
// took. The word is merged in one step: leading/trailing run lengths come
// from complement zero counts, the interior maximum from run-length
// erosion. When those bits close the block, closed is true and class is
// the block's longest run clamped to [lo, hi] and offset by lo; the next
// Feed starts a new block. Bits of v above take are ignored.
//
//trnglint:hotpath
func (b *LongestRun) Feed(v uint64, nbits int) (take, class int, closed bool) {
	take = min(nbits, b.m-b.pos)
	seg := v & lowMask(take)
	if lead := bits.TrailingZeros64(^seg); lead >= take {
		// All ones: the current run extends across the segment.
		b.run += take
	} else {
		if r := b.run + lead; r > b.blkMax {
			b.blkMax = r
		}
		r := 0
		for x := seg; x != 0; x &= x >> 1 {
			r++
		}
		if r > b.blkMax {
			b.blkMax = r
		}
		b.run = bits.LeadingZeros64(^(seg << uint(64-take)))
	}
	if b.run > b.blkMax {
		b.blkMax = b.run
	}
	b.pos += take
	if b.pos < b.m {
		return take, 0, false
	}
	class = min(max(b.blkMax, b.lo), b.hi) - b.lo
	b.Reset()
	return take, class, true
}
