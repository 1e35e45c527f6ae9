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
		// The block scans run only for a word with a match to place or
		// a block end to close; any other word just advances its block.
		if st.hasNO {
			if mm := matchNO(v, lo) & valid; mm != 0 || st.noPos+nbits >= st.noBlockLen {
				st.scanNonOverlap(mm, nbits)
			} else {
				st.noPos += nbits
			}
		}
		if st.hasOV {
			mm := matchOV(v, lo) & valid
			if st.ovPos >= tplM-1 && st.ovPos+nbits < st.ovBlockLen {
				st.ovOcc = min(st.ovOcc+bits.OnesCount64(mm), ovK)
				st.ovPos += nbits
			} else {
				st.scanOverlap(mm, nbits)
			}
		}
		if st.hasSer {
			// Lane k holds, at bit t, the stream bit from k clocks ago.
			a := st.serialValid(v, valid) & v
			l1, l2, l3 := v<<1|lo>>63, v<<2|lo>>62, v<<3|lo>>61
			countLaneSets((*[4]uint64)(st.serQ[:4]), a, l1, l2)
			countLaneSets((*[4]uint64)(st.serQ[4:]), a&l3, l1, l2)
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
		st.ovOcc = min(st.ovOcc+bits.OnesCount64(seg), ovK)
		st.ovPos += take
		if st.ovPos == st.ovBlockLen {
			st.ovClasses[st.ovOcc]++
			st.ovOcc, st.ovPos = 0, 0
		}
		off += take
	}
}

// serialValid narrows valid, the word's positions, to those whose m-bit
// windows the serial engine counts. Only the lane-set counters are
// maintained per word; serialSync rebuilds the pattern banks from them.
// During the first m-1 bits of a sequence the word also fills the head
// register for the cyclic wrap-around feed, and windows that end before
// bit m-1 are masked off, as the hardware gates its bank on window fill.
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

// countLaneSets is the serial kernel, for the lane sets S that hold lane
// 0: the windows ending at a set bit of a have ones on lane 0 and on the
// lanes a was ANDed with (none, or lane 3), and c[i] gains those that
// also have ones on lanes {k+1 : bit k of i}, the lanes l1 and l2. Two
// calls, eight popcounts, count a word into the serQ lane-set counters;
// the sixteen pattern counts follow from these sums at readout
// (serialSync).
//
//trnglint:hotpath
func countLaneSets(c *[4]uint64, a, l1, l2 uint64) {
	a1 := a & l1
	c[0] += uint64(bits.OnesCount64(a))
	c[1] += uint64(bits.OnesCount64(a1))
	c[2] += uint64(bits.OnesCount64(a & l2))
	c[3] += uint64(bits.OnesCount64(a1 & l2))
}

// serialSync rebuilds the three pattern banks from the lane-set counters.
// P(S), the number of counted windows with ones on every lane of S (bit k
// of S is lane k, the pattern index's bit k), is Q(S shifted down to lane
// 0) counted min(S) clocks later; serialEdges corrects that shift in a
// partial sequence, and after the wrap-around feed the counts are cyclic
// and need no correction. A Möbius pass over the four lanes turns the
// P(S) into the sixteen m-bit pattern counts.
//
// A width-(m-1) window ending at bit i is the low m-1 bits of the width-m
// window ending at i, so summing the m-bit bank over its top bit yields
// every (m-1)-bit count except the single window that ends at bit m-2 —
// before the m-bit bank has started counting. That window is exactly the
// captured sequence head, added back as a +1 correction (likewise one head
// window for the (m-2)-bit bank). After the wrap-around every bank holds
// exactly n windows and the marginals are exact with no correction.
func (st *State) serialSync() {
	if !st.hasSer || st.serSynced {
		return
	}
	const m = serM
	q, p := &st.serQ, (*[16]uint64)(st.serNu[0])
	p[0], p[1], p[2], p[3] = uint64(max(st.bits-(m-1), 0)), q[0], q[0], q[1]
	p[4], p[5], p[6], p[7] = q[0], q[2], q[1], q[3]
	p[8], p[9], p[10], p[11] = q[0], q[4], q[2], q[5]
	p[12], p[13], p[14], p[15] = q[1], q[6], q[3], q[7]
	if st.serCyclic {
		p[0] = uint64(st.n)
	} else {
		st.serialEdges(p)
	}
	// Möbius pass, one lane per line: after the line for lane k, p[T]
	// counts the windows with ones on the lanes of T and zeros on the
	// other lanes up to k.
	p[0], p[2], p[4], p[6], p[8], p[10], p[12], p[14] = p[0]-p[1], p[2]-p[3], p[4]-p[5], p[6]-p[7], p[8]-p[9], p[10]-p[11], p[12]-p[13], p[14]-p[15]
	p[0], p[1], p[4], p[5], p[8], p[9], p[12], p[13] = p[0]-p[2], p[1]-p[3], p[4]-p[6], p[5]-p[7], p[8]-p[10], p[9]-p[11], p[12]-p[14], p[13]-p[15]
	p[0], p[1], p[2], p[3], p[8], p[9], p[10], p[11] = p[0]-p[4], p[1]-p[5], p[2]-p[6], p[3]-p[7], p[8]-p[12], p[9]-p[13], p[10]-p[14], p[11]-p[15]
	p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7] = p[0]-p[8], p[1]-p[9], p[2]-p[10], p[3]-p[11], p[4]-p[12], p[5]-p[13], p[6]-p[14], p[7]-p[15]
	nu1, nu2 := (*[8]uint64)(st.serNu[1]), (*[4]uint64)(st.serNu[2])
	for i := range nu1 {
		nu1[i] = p[i] + p[i+8]
	}
	if !st.serCyclic && st.bits >= m-1 {
		nu1[reverse(st.serHead, m-1)]++
	}
	for i := range nu2 {
		nu2[i] = nu1[i] + nu1[i+4]
	}
	if !st.serCyclic && st.bits >= m-2 {
		nu2[reverse(st.serHead, m-2)]++
	}
	st.serSynced = true
}

// serialEdges corrects the shifted counts p of a partial sequence. For a
// lane set S whose lowest lane is j ≥ 1, Q(S shifted to lane 0) counts the
// matching windows ending at bits m-1 … bits-1 but P(S) wants them j
// clocks later: it loses the matches at the j newest window ends (read
// from the context register) and gains those at the j ends before bit
// m-1 (read from the head), each end only if the sequence has reached it.
func (st *State) serialEdges(p *[16]uint64) {
	for s := 2; s < 1<<serM; s += 2 {
		j := bits.TrailingZeros(uint(s))
		tail, head := ^uint64(0), ^uint64(0)
		for k := j; k < serM; k++ {
			if s>>k&1 == 1 {
				tail &= st.ctx << uint(k-j)
				head &= st.serHead << uint(k-j)
			}
		}
		// The context holds bit b of the stream at ctxW - bits + b.
		for end := max(serM-1, st.bits-j); end < st.bits; end++ {
			p[s] -= tail >> uint(ctxW-st.bits+end) & 1
		}
		for end := serM - 1 - j; end < min(serM-1, st.bits-j); end++ {
			p[s] += head >> uint(end) & 1
		}
	}
}

// reverse returns the low w bits of x in reverse order: a chronological
// head prefix as a pattern index (oldest bit most significant).
func reverse(x uint64, w int) uint64 { return bits.Reverse64(x) >> uint(64-w) }

// finalize runs the end-of-sequence fixups: the serial test's cyclic
// wrap-around feed, which continues the stream with the captured head.
// The head's m-1 bits go through the per-word kernel after the tail
// context, every window counted, so every lane-set count becomes cyclic:
// over all n window ends, with the stream read modulo n.
func (st *State) finalize() {
	if st.hasSer {
		v, lo := st.serHead, st.ctx<<(64-ctxW)
		l1, l2, l3 := v<<1|lo>>63, v<<2|lo>>62, v<<3|lo>>61
		countLaneSets((*[4]uint64)(st.serQ[:4]), v, l1, l2)
		countLaneSets((*[4]uint64)(st.serQ[4:]), v&l3, l1, l2)
		st.serCyclic = true
		st.serSynced = false
	}
	st.done = true
}
