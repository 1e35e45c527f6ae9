package hwfast

import (
	"fmt"
	"math/bits"
)

// walkEntry carries the effect of eight clocks of the ±1 random walk: the
// net displacement and the extrema of the intra-byte prefix sums. The bits
// of the index are chronological, LSB first (the bitstream packing order).
type walkEntry struct{ delta, min, max int8 }

var walkTab = func() [256]walkEntry {
	var t [256]walkEntry
	for b := 0; b < 256; b++ {
		s, mn, mx := 0, 0, 0
		for i := 0; i < 8; i++ {
			if b>>uint(i)&1 == 1 {
				s++
			} else {
				s--
			}
			if s < mn {
				mn = s
			}
			if s > mx {
				mx = s
			}
		}
		t[b] = walkEntry{delta: int8(s), min: int8(mn), max: int8(mx)}
	}
	return t
}()

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
	v := w & lowMask(nbits)

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
	if st.hasNO || st.hasOV {
		st.ingestTemplates(v, nbits)
		st.updateTail(v, nbits)
	}
	if st.hasSer {
		st.ingestSerial(v, nbits)
	}

	st.bits += nbits
	if st.bits == st.n {
		st.finalize()
	}
	return nil
}

// Walk folds nbits bits of v (1..64, chronological, LSB first) into the
// ±1 random walk: it returns the net displacement and the extrema of the
// prefix sums, lo and hi, relative to the walk value before the first bit
// (0 included) — one table lookup per byte, per-bit only for a trailing
// partial byte. Bits of v above nbits are ignored.
//
//trnglint:hotpath
func Walk(v uint64, nbits int) (delta, lo, hi int64) {
	i := 0
	for ; i+8 <= nbits; i += 8 {
		e := &walkTab[byte(v>>uint(i))]
		if m := delta + int64(e.min); m < lo {
			lo = m
		}
		if m := delta + int64(e.max); m > hi {
			hi = m
		}
		delta += int64(e.delta)
	}
	for ; i < nbits; i++ {
		if v>>uint(i)&1 == 1 {
			delta++
		} else {
			delta--
		}
		if delta < lo {
			lo = delta
		}
		if delta > hi {
			hi = delta
		}
	}
	return delta, lo, hi
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

// ingestTemplates builds the per-word match bitmaps for both template
// tests with an m-lane AND network, then applies the per-block scan rules
// to the (rare) set bits. Lane k holds, at bit t, the stream bit from k
// clocks ago; bits older than the word come from the tail context.
func (st *State) ingestTemplates(v uint64, nbits int) {
	m := st.winM
	mmNO := ^uint64(0) // windows equal to the fixed template
	mmOV := ^uint64(0) // windows equal to all ones
	for k := 0; k < m; k++ {
		lane := v<<uint(k) | st.tail>>uint(m-1-k)
		if st.noTpl>>uint(k)&1 == 1 {
			mmNO &= lane
		} else {
			mmNO &^= lane
		}
		mmOV &= lane
	}
	valid := lowMask(nbits)
	if st.hasNO {
		st.scanNonOverlap(mmNO&valid, nbits)
	}
	if st.hasOV {
		st.scanOverlap(mmOV&valid, nbits)
	}
}

// scanNonOverlap applies block validity and the non-overlapping hold-off
// to the match bitmap. A match ending at in-block position p counts only
// if the whole window lies inside the block (p ≥ m-1) and no counted match
// ended within the previous m-1 bits.
func (st *State) scanNonOverlap(mm uint64, nbits int) {
	off := 0
	for off < nbits {
		take := nbits - off
		if rem := st.noBlockLen - st.noPos; take > rem {
			take = rem
		}
		seg := mm >> uint(off) & lowMask(take)
		if inv := st.winM - 1 - st.noPos; inv > 0 {
			seg &^= lowMask(inv)
		}
		for s := seg; s != 0; s &= s - 1 {
			if p := st.noPos + bits.TrailingZeros64(s); p >= st.noNext {
				st.noW++
				st.noNext = p + st.winM
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
		if inv := st.winM - 1 - st.ovPos; inv > 0 {
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

// updateTail slides the m-1 bit window context past the ingested word.
func (st *State) updateTail(v uint64, nbits int) {
	mw := st.winM - 1
	if mw <= 0 {
		return
	}
	if nbits >= mw {
		st.tail = v >> uint(nbits-mw) & lowMask(mw)
	} else {
		st.tail = (st.tail | v<<uint(mw)) >> uint(nbits) & lowMask(mw)
	}
}

// ingestSerial runs the sliding-window pattern counter. Only the m-bit
// bank is maintained per bit; the (m-1)- and (m-2)-bit banks are exact
// marginals of it and are reconstructed lazily by serialSync, so steady
// state is one masked increment per bit. The branches on serFill only
// fire for the first m bits of a sequence.
func (st *State) ingestSerial(v uint64, nbits int) {
	m := st.serM
	maskM := lowMask(m)
	nu0 := st.serNu[0]
	j := 0
	if st.serFill < m {
		// Warm-up: capture the sequence head for the cyclic wrap-around
		// and gate the bank on window fill, exactly as the hardware does.
		headMask := lowMask(m - 1)
		for ; j < nbits && st.serFill < m; j++ {
			bit := v >> uint(j) & 1
			if st.serFill < m-1 {
				st.serHead = (st.serHead<<1 | bit) & headMask
			}
			st.serFill++
			st.serWin = st.serWin<<1 | bit
			if st.serFill >= m {
				nu0[st.serWin&maskM]++
			}
		}
	}
	win := st.serWin
	for ; j < nbits; j++ {
		win = win<<1 | v>>uint(j)&1
		nu0[win&maskM]++
	}
	st.serWin = win
	st.serSynced = false
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
	m := st.serM
	nu0, nu1, nu2 := st.serNu[0], st.serNu[1], st.serNu[2]
	top0 := 1 << uint(m-1)
	for p := range nu1 {
		nu1[p] = nu0[p] + nu0[p|top0]
	}
	if !st.serCyclic && st.bits >= m-1 {
		nu1[st.serHead]++
	}
	top1 := 1 << uint(m-2)
	for q := range nu2 {
		nu2[q] = nu1[q] + nu1[q|top1]
	}
	if !st.serCyclic && st.bits >= m-2 {
		// The head register holds min(bits, m-1) bits; drop its newest
		// bit(s) to recover the width-(m-2) window ending at bit m-3.
		nu2[st.serHead>>uint(min(st.bits, m-1)-(m-2))]++
	}
	st.serSynced = true
}

// finalize runs the end-of-sequence fixups: the serial test's cyclic
// wrap-around feed. Only the m-bit bank is fed; the wrap makes every
// bank hold exactly n cyclic windows, so the narrower banks follow from
// marginalization alone (serialSync).
func (st *State) finalize() {
	if st.hasSer {
		m := st.serM
		maskM := lowMask(m)
		for j := 0; j < m-1; j++ {
			bit := st.serHead >> uint(m-2-j) & 1
			st.serWin = st.serWin<<1 | bit
			st.serNu[0][st.serWin&maskM]++
		}
		st.serCyclic = true
		st.serSynced = false
	}
	st.done = true
}
