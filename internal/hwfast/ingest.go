package hwfast

import (
	"errors"
	"fmt"
	"math/bits"
)

// walkTab maps a byte (eight chronological bits, LSB first, the
// bitstream packing order) to the effect of eight clocks of the ±1 random
// walk, packed as E<<16 | M<<8 | S+8: the maximum prefix excess E ≥ 0,
// the maximum prefix deficit M ≥ 0 and the net sum S. Folding it over a
// word's bytes gives the word's extrema: M_word = max_k(M_k − S_{<k}),
// E_word = max_k(E_k + S_{<k}).
var walkTab = func() [256]uint32 {
	var t [256]uint32
	for b := 0; b < 256; b++ {
		s, m, e := 0, 0, 0
		for i := 0; i < 8; i++ {
			if b>>uint(i)&1 == 1 {
				s++
			} else {
				s--
			}
			if -s > m {
				m = -s
			}
			if s > e {
				e = s
			}
		}
		t[b] = uint32(e<<16 | m<<8 | (s + 8))
	}
	return t
}()

// WalkByte returns byte b's packed walk summary, E<<16 | M<<8 | S+8 (see
// walkTab): the entry internal/hwslice's tile kernel folds per lane-word.
//
//trnglint:hotpath
func WalkByte(b byte) uint32 { return walkTab[b] }

// lowMask returns a mask of the low n bits (n in [0, 64]).
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// ClockWord ingests nbits bits (1..64) in one call. Bit i of w is the i-th
// bit chronologically — the packing order of bitstream.Sequence, so a
// sequence word feeds straight through. Feeding more bits than remain in
// the sequence is an error, mirroring the hardware's one-sequence-per-reset
// contract.
//
//trnglint:hotpath
func (st *State) ClockWord(w uint64, nbits int) error {
	if st.done {
		return fmt.Errorf("hwfast: sequence complete; Reset before feeding more bits") //trnglint:alloc argument-validation error path, never taken at line rate
	}
	if nbits < 1 || nbits > 64 {
		return fmt.Errorf("hwfast: word size %d out of range [1,64]", nbits) //trnglint:alloc argument-validation error path, never taken at line rate
	}
	if rem := st.n - st.bits; nbits > rem {
		return fmt.Errorf("hwfast: %d bits exceed the %d remaining in the sequence", nbits, rem) //trnglint:alloc argument-validation error path, never taken at line rate
	}
	st.ingest(w&lowMask(nbits), nbits)
	return nil
}

// Errors of the burst entry point ClockWords. They are preallocated so
// that a rejected burst allocates nothing.
var (
	errBurstDone = errors.New("hwfast: sequence complete; Reset before feeding more bits")
	errBurstLong = errors.New("hwfast: word burst passes the end of the sequence")
)

// ClockWords ingests a burst of whole 64-bit words, ws[0] first, with the
// argument checks made once for the whole burst: the words must fit in
// what remains of the sequence (a burst may end exactly at its end). A
// rejected burst clocks nothing. Each word goes through the same per-word
// engine code as ClockWord(w, 64), so the two feeds leave identical state.
//
//trnglint:hotpath
func (st *State) ClockWords(ws []uint64) error {
	if st.done {
		return errBurstDone
	}
	if len(ws) > (st.n-st.bits)/64 {
		return errBurstLong
	}
	for _, w := range ws {
		st.ingest(w, 64)
	}
	return nil
}

// ingest runs nbits validated bits of v (1..64, bits above nbits clear)
// through every engine — the one copy of the per-word engine code behind
// ClockWord and ClockWords.
func (st *State) ingest(v uint64, nbits int) {
	// In external (bit-sliced assist) mode the four sliceable engines are
	// advanced by the lane group; only the residual per-stream-order
	// engines below run here.
	if !st.external {
		d, lo, hi := Walk(v, nbits)
		st.sMin = min(st.sMin, st.s+lo)
		st.sMax = max(st.sMax, st.s+hi)
		st.s += d
		if st.hasRuns {
			st.ingestRuns(v, nbits)
		}
		for off := 0; st.hasBF && off < nbits; {
			take, eps, closed := st.bf.Feed(v>>uint(off), nbits-off)
			if closed && st.bfCur < len(st.bfBank) {
				st.bfBank[st.bfCur] = eps
				st.bfCur++
			}
			off += take
		}
		for off := 0; st.hasLR && off < nbits; {
			take, class, closed := st.lr.Feed(v>>uint(off), nbits-off)
			if closed {
				st.lrClasses[class]++
			}
			off += take
		}
	}
	if st.Residual() {
		// The word and its context, held as the low half of a 128-bit
		// shift (see erode8).
		valid, lo := lowMask(nbits), st.ctx<<(64-ctxW)
		if st.hasNO {
			st.scanNonOverlap(matchNO(v, lo)&valid, nbits)
		}
		if st.hasOV {
			st.scanOverlap(matchOV(v, lo)&valid, nbits)
		}
		if st.hasSer {
			// Lane k holds, at bit t, the stream bit from k clocks ago;
			// a window's pattern index is lane3·8 + lane2·4 + lane1·2 +
			// lane0. Lanes 3 and 2 split the positions to count four
			// ways, lanes 1 and 0 every position four ways; the sixteen
			// pattern counts are the pairwise ANDs' popcounts.
			x := st.serialValid(v, valid)
			l1, l2, l3 := v<<1|lo>>63, v<<2|lo>>62, v<<3|lo>>61
			x0, x1 := x&^l3, x&l3
			r0, r1, r2, r3 := ^(l1 | v), v&^l1, l1&^v, l1&v
			nu := (*[16]uint64)(st.serNu[0])
			countRow4((*[4]uint64)(nu[0:4]), x0&^l2, r0, r1, r2, r3)
			countRow4((*[4]uint64)(nu[4:8]), x0&l2, r0, r1, r2, r3)
			countRow4((*[4]uint64)(nu[8:12]), x1&^l2, r0, r1, r2, r3)
			countRow4((*[4]uint64)(nu[12:16]), x1&l2, r0, r1, r2, r3)
		}
		st.slideContext(v, nbits)
	}

	st.bits += nbits
	if st.bits == st.n {
		st.finalize()
	}
}

// Walk folds nbits bits of v (1..64, chronological, LSB first) into the
// ±1 random walk: it returns the net displacement and the extrema of the
// prefix sums, lo and hi, relative to the walk value before the first bit
// (0 included) — one table lookup per byte, per-bit only for a trailing
// partial byte. Bits of v above nbits are ignored. A whole word folds its
// eight byte entries as a balanced tree of builtin max, with no
// data-dependent branch; ragged sizes take the byte loop.
//
//trnglint:hotpath
func Walk(v uint64, nbits int) (delta, lo, hi int64) {
	if nbits == 64 {
		return walkWord(v)
	}
	i := 0
	for ; i+8 <= nbits; i += 8 {
		e := int64(walkTab[byte(v>>uint(i))])
		lo = min(lo, delta-e>>8&0xff)
		hi = max(hi, delta+e>>16)
		delta += e&0xff - 8
	}
	for ; i < nbits; i++ {
		delta += int64(v>>uint(i)&1)*2 - 1
		lo = min(lo, delta)
		hi = max(hi, delta)
	}
	return delta, lo, hi
}

// walkWord is Walk over a whole word. Two adjacent spans a, b with sums
// S, maximum prefix deficits M and excesses E (all relative to each
// span's start) fold as S = Sa+Sb, M = max(Ma, Mb−Sa), E = max(Ea, Eb+Sa);
// the eight byte entries fold pairwise in three levels.
//
//trnglint:hotpath
func walkWord(v uint64) (delta, lo, hi int64) {
	t0 := int64(walkTab[byte(v)])
	t1 := int64(walkTab[byte(v>>8)])
	t2 := int64(walkTab[byte(v>>16)])
	t3 := int64(walkTab[byte(v>>24)])
	t4 := int64(walkTab[byte(v>>32)])
	t5 := int64(walkTab[byte(v>>40)])
	t6 := int64(walkTab[byte(v>>48)])
	t7 := int64(walkTab[byte(v>>56)])
	s0, s2, s4, s6 := t0&0xff-8, t2&0xff-8, t4&0xff-8, t6&0xff-8
	s01 := s0 + t1&0xff - 8
	s23 := s2 + t3&0xff - 8
	s45 := s4 + t5&0xff - 8
	s67 := s6 + t7&0xff - 8
	m01 := max(t0>>8&0xff, t1>>8&0xff-s0)
	m23 := max(t2>>8&0xff, t3>>8&0xff-s2)
	m45 := max(t4>>8&0xff, t5>>8&0xff-s4)
	m67 := max(t6>>8&0xff, t7>>8&0xff-s6)
	e01 := max(t0>>16, t1>>16+s0)
	e23 := max(t2>>16, t3>>16+s2)
	e45 := max(t4>>16, t5>>16+s4)
	e67 := max(t6>>16, t7>>16+s6)
	s03, s47 := s01+s23, s45+s67
	m03, m47 := max(m01, m23-s01), max(m45, m67-s45)
	e03, e47 := max(e01, e23+s01), max(e45, e67+s45)
	return s03 + s47, -max(m03, m47-s03), max(e03, e47+s03)
}

// ingestRuns counts runs: one seam comparison against the previous word's
// last bit, then a popcount of the intra-word transition map.
func (st *State) ingestRuns(v uint64, nbits int) {
	if st.bits == 0 || st.prev != byte(v&1) {
		st.runs++
	}
	if nbits > 1 {
		st.runs += uint64(bits.OnesCount64((v ^ (v >> 1)) & lowMask(nbits-1)))
	}
	st.prev = byte(v >> uint(nbits-1) & 1)
}

// slideContext moves the shared ctxW-bit context register past the
// ingested word.
func (st *State) slideContext(v uint64, nbits int) {
	if nbits >= ctxW {
		st.ctx = v >> uint(nbits-ctxW) & lowMask(ctxW)
	} else {
		st.ctx = (st.ctx | v<<ctxW) >> uint(nbits) & lowMask(ctxW)
	}
}

// scanNonOverlap applies block validity and the non-overlapping hold-off
// to the match bitmap. A match ending at in-block position p counts only
// if the whole window lies inside the block (p ≥ 8) and no counted match
// ended within the previous eight bits.
func (st *State) scanNonOverlap(mm uint64, nbits int) {
	off := 0
	for off < nbits {
		take := nbits - off
		if rem := st.noBlockLen - st.noPos; take > rem {
			take = rem
		}
		seg := mm >> uint(off) & lowMask(take)
		if inv := tplM - 1 - st.noPos; inv > 0 {
			seg &^= lowMask(inv)
		}
		for s := seg; s != 0; s &= s - 1 {
			if p := st.noPos + bits.TrailingZeros64(s); p >= st.noNext {
				st.noW++
				st.noNext = p + tplM
			}
		}
		st.noPos += take
		if st.noPos == st.noBlockLen {
			if st.noCur < st.noNBlocks {
				st.noBank[st.noCur] = st.noW
				st.noCur++
			}
			st.noW, st.noPos, st.noNext = 0, 0, 0
		}
		off += take
	}
}

// scanOverlap applies block validity to the all-ones match bitmap and
// accumulates the per-block occurrence count, saturating at K.
func (st *State) scanOverlap(mm uint64, nbits int) {
	off := 0
	for off < nbits {
		take := nbits - off
		if rem := st.ovBlockLen - st.ovPos; take > rem {
			take = rem
		}
		seg := mm >> uint(off) & lowMask(take)
		if inv := tplM - 1 - st.ovPos; inv > 0 {
			seg &^= lowMask(inv)
		}
		if c := bits.OnesCount64(seg); c > 0 {
			if st.ovOcc += c; st.ovOcc > st.ovK {
				st.ovOcc = st.ovK
			}
		}
		st.ovPos += take
		if st.ovPos == st.ovBlockLen {
			st.ovClasses[st.ovOcc]++
			st.ovOcc, st.ovPos = 0, 0
		}
		off += take
	}
}

// serialValid narrows valid, the word's positions, to those whose m-bit
// windows the serial engine counts into the m-bit bank. Only that bank is
// maintained per word; the (m-1)- and (m-2)-bit banks are exact marginals
// of it, rebuilt lazily by serialSync. During the first m-1 bits of a
// sequence the word also fills the head register for the cyclic
// wrap-around feed, and windows that end before bit m-1 are masked off, as
// the hardware gates its bank on window fill.
func (st *State) serialValid(v, valid uint64) uint64 {
	if fill := serM - 1 - st.bits; fill > 0 {
		st.serHead |= v << uint(st.bits) & (1<<(serM-1) - 1)
		valid &^= 1<<uint(fill) - 1
	}
	st.serSynced = false
	return valid
}

// erode8 returns, for every bit t of the word hi, the AND of stream bits
// t-7…t, three erosion steps (by 1, 2 and 4) with compile-time shifts.
// The bits before the word come from lo, its context: a 128-bit value
// hi:lo with the eight context bits in lo's top byte, chronological (the
// bit one clock before the word at bit 63). The second result is lo
// eroded alike; its bit 63 is the AND over the eight context bits, which
// delays the erosion by one more clock (e<<1 | elo>>63). The AND over a
// window's eight newest bits comes out of three steps instead of eight
// shifted copies of the word.
//
//trnglint:hotpath
func erode8(hi, lo uint64) (e, elo uint64) {
	hi &= hi<<1 | lo>>63
	lo &= lo << 1
	hi &= hi<<2 | lo>>62
	lo &= lo << 2
	hi &= hi<<4 | lo>>60
	lo &= lo << 4
	return hi, lo
}

// matchOV is the overlapping test's match bitmap for the 9-bit all-ones
// template: the word and its context eroded by 1, 2 and 4 (the AND of
// the window's eight newest bits), then ANDed with its oldest bit.
//
//trnglint:hotpath
func matchOV(v, lo uint64) uint64 {
	e, _ := erode8(v, lo)
	return e & (v<<8 | lo>>56)
}

// matchNO is the non-overlapping test's match bitmap for the template
// B = 000000001, the newest bit set and the eight before it clear: the
// complement eroded by 1, 2 and 4 and delayed one clock (the AND of the
// complemented eight older bits), ANDed with the word (the newest bit).
//
//trnglint:hotpath
func matchNO(v, lo uint64) uint64 {
	z, zlo := erode8(^v, ^lo)
	return v & (z<<1 | zlo>>63)
}

// countRow4 is a row of the serial kernel: it adds the popcount of
// q & r_j to c[j] for j = 0…3, where q holds the positions whose window
// has one value of lanes 3 and 2 and r0…r3 split every position by lanes
// 1 and 0.
//
//trnglint:hotpath
func countRow4(c *[4]uint64, q, r0, r1, r2, r3 uint64) {
	c[0] += uint64(bits.OnesCount64(q & r0))
	c[1] += uint64(bits.OnesCount64(q & r1))
	c[2] += uint64(bits.OnesCount64(q & r2))
	c[3] += uint64(bits.OnesCount64(q & r3))
}

// serialSync rebuilds the (m-1)- and (m-2)-bit pattern banks from the
// m-bit bank. A width-(m-1) window ending at bit i is the low m-1 bits of
// the width-m window ending at i, so summing the m-bit bank over its top
// bit yields every (m-1)-bit count except the single window that ends at
// bit m-2 — before the m-bit bank has started counting. That window is
// exactly the captured sequence head, added back as a +1 correction
// (likewise one head window for the (m-2)-bit bank). After the cyclic
// wrap-around feed every bank holds exactly n windows and the marginals
// are exact with no correction.
func (st *State) serialSync() {
	if !st.hasSer || st.serSynced {
		return
	}
	const m = serM
	nu0, nu1, nu2 := st.serNu[0], st.serNu[1], st.serNu[2]
	top0 := 1 << uint(m-1)
	for p := range nu1 {
		nu1[p] = nu0[p] + nu0[p|top0]
	}
	if !st.serCyclic && st.bits >= m-1 {
		nu1[reverse(st.serHead, m-1)]++
	}
	top1 := 1 << uint(m-2)
	for q := range nu2 {
		nu2[q] = nu1[q] + nu1[q|top1]
	}
	if !st.serCyclic && st.bits >= m-2 {
		nu2[reverse(st.serHead, m-2)]++
	}
	st.serSynced = true
}

// reverse returns the low w bits of x in reverse order: a chronological
// head prefix as a pattern index (oldest bit most significant).
func reverse(x uint64, w int) uint64 { return bits.Reverse64(x) >> uint(64-w) }

// finalize runs the end-of-sequence fixups: the serial test's cyclic
// wrap-around feed, which continues the stream with the captured head.
// The m-1 windows ending in the head are counted one at a time from the
// tail context and the head (oldest bit the pattern's most significant).
// Only the m-bit bank is fed; the wrap makes every bank hold exactly n
// cyclic windows, so the narrower banks follow from marginalization alone
// (serialSync).
func (st *State) finalize() {
	if st.hasSer {
		x := st.ctx | st.serHead<<ctxW
		for end := ctxW; end < ctxW+serM-1; end++ {
			st.serNu[0][reverse(x>>(end-serM+1), serM)]++
		}
		st.serCyclic = true
		st.serSynced = false
	}
	st.done = true
}
