package hwslice

import (
	"math/bits"

	"repro/internal/hwfast"
)

// The tile-rate kernels behind Group compute the four sliceable
// statistics horizontally: one pass over a tile's lane-major words, up
// to the highest attached lane, with no per-bit state transitions at all.
//
//   - The cumulative-sums walk is per-lane, per-word. The reflected walk
//     obeys the Lindley recursion: over any 64-bit span the floor hits
//     (new extrema) are drops = max(0, M − d₀), where d₀ is the distance
//     to the extremum at word start and M the span's maximum prefix
//     deficit, and the end distance is d₀ + S + drops (S the net sum).
//     M, its excess twin E and S come from hwfast's byte-walk table
//     (hwfast.WalkByte, the one copy in the module) folded over the
//     word's bytes; a lane at distance ≥ 64 on both sides skips even
//     that and takes the linear update d ± (2·ones − 64).
//   - Runs and block frequency have no cross-bit state: per-lane
//     transition counts and ones counts are single POPCNTs.
//   - Longest run over blocks of a tile or more keeps a carried open-run
//     length per lane and tests whole words: the carried run closed by
//     the word's leading ones competes first, then a word-parallel
//     doubling test (y &= y<<s marks run ends of length ≥ c) asks only
//     whether some internal run beats the current maximum — exact length
//     is recovered by further doubling only on the rare new-maximum
//     event. The carried run and the maximum saturate at the top class
//     bound hi, as the netlist's lr_run and lr_max do, so a saturated
//     maximum skips the test. Completed blocks classify scalar per lane
//     into per-class counters.
//   - Blocks shorter than a tile divide 64, so each opens and closes
//     inside one word and carries no state across words: absorbSubBlocks
//     stores one masked POPCNT per block-frequency block and classifies
//     a word's longest-run blocks together by run-length erosion.

// absorbChunk is the burst hot loop: tile-outer, lane-inner, unrolled
// two tiles per pass so each lane's counters load and store once per
// word pair instead of once per word — that halves the L1 read/write
// traffic on the counter arrays, which profiling showed was the largest
// cost after the popcounts themselves. The full lane-outer transpose
// (hoisting counters across the whole chunk) was tried and measured
// slower — the widened loop spilled registers — so the pair is the
// sweet spot. Only the pair's two halves spell the per-word updates out
// by hand (merging the halves into one loop body measured about 4 %
// slower); the odd tile of a burst takes hwfast.Walk and plain erosion
// instead. The differential suite against hwfast holds both to
// bit-exactness. Every lane loop stops after the highest attached lane
// (see Group), so a sparse group pays for the lanes it holds.
func (g *Group) absorbChunk(tiles [][64]uint64) {
	hasRuns, hasBF, hasLR := g.hasRuns, g.bfLong, g.lrLong
	nl := bits.Len64(g.active) // lanes 0 … nl-1; none above is attached
	off := g.off
	first := uint64(0)
	if off == 0 {
		first = 1 // every lane counts its opening run at bit zero
	}
	// Longest-run block boundaries are tile-aligned and common to all
	// lanes, so one countdown serves the whole chunk: when it hits zero
	// every lane's block maximum classifies into its class counter and
	// the trackers rearm — runs restart at block boundaries, exactly
	// like the hardware engine.
	lrTiles, cnt := 0, 0
	lo, hi := g.lrLo, g.lrHi
	if hasLR {
		lrTiles = g.lrM / 64
		cnt = lrTiles - (off/64)%lrTiles
	}
	prev := g.prevT
	j := 0
	for ; j+1 < len(tiles); j += 2 {
		ta, tb := &tiles[j], &tiles[j+1]
		// Advance the block countdown for both tiles up front: the
		// boundaries are common to all lanes, so the lane loop only
		// needs two flags saying whether a block closes after the
		// first and/or the second word.
		b0, b1 := false, false
		if hasLR {
			cnt--
			if cnt == 0 {
				b0, cnt = true, lrTiles
			}
			cnt--
			if cnt == 0 {
				b1, cnt = true, lrTiles
			}
		}
		var pt uint64
		for l := 0; l < nl; l++ {
			w0, w1 := ta[l], tb[l]
			runsv := g.runs[l]
			bf := g.bfEps[l]
			r := int(g.lrRun[l])
			m := int(g.lrMax[l])
			d, x := int(g.dMin[l]), int(g.dMax[l])

			// ---- first word of the pair ----
			{
				w := w0
				pc := int(bits.OnesCount64(w))
				if hasRuns {
					tr := (w ^ (w<<1 | prev>>uint(l)&1)) | first
					runsv += uint32(bits.OnesCount64(tr))
				}
				if hasBF {
					bf += uint32(pc)
				}
				if hasLR {
					nw := ^w
					lead := bits.TrailingZeros64(nw)
					m = max(m, min(r+lead, hi)) // the carried-in run, closed inside w (or spanning it)
					if lead == 64 {
						r = min(r+64, hi)
					} else {
						// Internal runs only matter if one beats m, which saturates
						// at hi like the netlist's lr_max. Test run ≥ m+1 with the
						// doubling identity f(c+s) = f(c) & f(c)<<s (s ≤ c), where
						// f(c) marks end positions of runs ≥ c; on the rare
						// new-maximum event, keep doubling by 1 to the exact length
						// or to hi, whichever comes first.
						if m < hi {
							y := w
							for c := 1; c < m+1; {
								s := min(c, m+1-c)
								y &= y << uint(s)
								if y == 0 {
									// No run of length ≥ c+s at all — the test
									// cannot recover, so skip the remaining
									// doublings (typical random words die here
									// within three iterations).
									break
								}
								c += s
							}
							if y != 0 {
								m++
								for m < hi {
									y &= y << 1
									if y == 0 {
										break
									}
									m++
								}
							}
						}
						// The trailing open run is an internal suffix run, so it
						// never exceeds the (now exact, saturated) maximum.
						r = min(bits.LeadingZeros64(nw), hi)
					}
					if b0 {
						c := min(max(m, lo), hi) - lo
						g.lrCls[l<<3|c]++
						m, r = 0, 0
					}
				}
				s := 2*pc - 64
				if d >= 64 && x >= 64 {
					// Far on both sides: the walk cannot reach either extremum
					// within 64 steps, so the floors never engage and the update
					// is linear in the net sum 2·ones − 64.
					d += s
					x -= s
				} else {
					t0 := int(hwfast.WalkByte(byte(w)))
					t1 := int(hwfast.WalkByte(byte(w >> 8)))
					t2 := int(hwfast.WalkByte(byte(w >> 16)))
					t3 := int(hwfast.WalkByte(byte(w >> 24)))
					t4 := int(hwfast.WalkByte(byte(w >> 32)))
					t5 := int(hwfast.WalkByte(byte(w >> 40)))
					t6 := int(hwfast.WalkByte(byte(w >> 48)))
					t7 := int(hwfast.WalkByte(byte(w >> 56)))
					s0 := t0&0xff - 8
					s2 := t2&0xff - 8
					s4 := t4&0xff - 8
					s6 := t6&0xff - 8
					s01 := s0 + t1&0xff - 8
					s23 := s2 + t3&0xff - 8
					s45 := s4 + t5&0xff - 8
					s03 := s01 + s23
					if d < 64 {
						m01 := max(t0>>8&0xff, t1>>8&0xff-s0)
						m23 := max(t2>>8&0xff, t3>>8&0xff-s2)
						m45 := max(t4>>8&0xff, t5>>8&0xff-s4)
						m67 := max(t6>>8&0xff, t7>>8&0xff-s6)
						mw := max(max(m01, m23-s01), max(m45, m67-s45)-s03)
						dr := max(0, mw-d)
						g.drops[l] += uint32(dr)
						d += dr
					}
					if x < 64 {
						e01 := max(t1>>16+s0, t0>>16)
						e23 := max(t3>>16+s2, t2>>16)
						e45 := max(t5>>16+s4, t4>>16)
						e67 := max(t7>>16+s6, t6>>16)
						e := max(max(e23+s01, e01), max(e67+s45, e45)+s03)
						ri := max(0, e-x)
						g.rises[l] += uint32(ri)
						x += ri
					}
					d += s
					x -= s
				}
			}

			// ---- second word of the pair ----
			{
				w := w1
				pc := int(bits.OnesCount64(w))
				if hasRuns {
					tr := w ^ (w<<1 | w0>>63)
					runsv += uint32(bits.OnesCount64(tr))
				}
				if hasBF {
					bf += uint32(pc)
				}
				if hasLR {
					nw := ^w
					lead := bits.TrailingZeros64(nw)
					m = max(m, min(r+lead, hi))
					if lead == 64 {
						r = min(r+64, hi)
					} else {
						if m < hi {
							y := w
							for c := 1; c < m+1; {
								s := min(c, m+1-c)
								y &= y << uint(s)
								if y == 0 {
									break
								}
								c += s
							}
							if y != 0 {
								m++
								for m < hi {
									y &= y << 1
									if y == 0 {
										break
									}
									m++
								}
							}
						}
						r = min(bits.LeadingZeros64(nw), hi)
					}
					if b1 {
						c := min(max(m, lo), hi) - lo
						g.lrCls[l<<3|c]++
						m, r = 0, 0
					}
				}
				s := 2*pc - 64
				if d >= 64 && x >= 64 {
					d += s
					x -= s
				} else {
					t0 := int(hwfast.WalkByte(byte(w)))
					t1 := int(hwfast.WalkByte(byte(w >> 8)))
					t2 := int(hwfast.WalkByte(byte(w >> 16)))
					t3 := int(hwfast.WalkByte(byte(w >> 24)))
					t4 := int(hwfast.WalkByte(byte(w >> 32)))
					t5 := int(hwfast.WalkByte(byte(w >> 40)))
					t6 := int(hwfast.WalkByte(byte(w >> 48)))
					t7 := int(hwfast.WalkByte(byte(w >> 56)))
					s0 := t0&0xff - 8
					s2 := t2&0xff - 8
					s4 := t4&0xff - 8
					s6 := t6&0xff - 8
					s01 := s0 + t1&0xff - 8
					s23 := s2 + t3&0xff - 8
					s45 := s4 + t5&0xff - 8
					s03 := s01 + s23
					if d < 64 {
						m01 := max(t0>>8&0xff, t1>>8&0xff-s0)
						m23 := max(t2>>8&0xff, t3>>8&0xff-s2)
						m45 := max(t4>>8&0xff, t5>>8&0xff-s4)
						m67 := max(t6>>8&0xff, t7>>8&0xff-s6)
						mw := max(max(m01, m23-s01), max(m45, m67-s45)-s03)
						dr := max(0, mw-d)
						g.drops[l] += uint32(dr)
						d += dr
					}
					if x < 64 {
						e01 := max(t1>>16+s0, t0>>16)
						e23 := max(t3>>16+s2, t2>>16)
						e45 := max(t5>>16+s4, t4>>16)
						e67 := max(t7>>16+s6, t6>>16)
						e := max(max(e23+s01, e01), max(e67+s45, e45)+s03)
						ri := max(0, e-x)
						g.rises[l] += uint32(ri)
						x += ri
					}
					d += s
					x -= s
				}
			}

			g.runs[l] = runsv
			g.bfEps[l] = bf
			g.lrRun[l], g.lrMax[l] = uint32(r), uint32(m)
			g.dMin[l], g.dMax[l] = uint32(d), uint32(x)
			pt |= w1 >> 63 << uint(l)
		}
		prev = pt
		first = 0
	}
	// Odd tail: at most one tile, once per chunk, so it is cold and takes
	// the short per-word forms rather than a third copy of the kernel: popcounts, run-length erosion (x &= x>>1 clears one bit of
	// every run) and hwfast.Walk, whose lo ≤ 0 ≤ hi are the word's maximum
	// prefix deficit −lo and excess hi.
	if j < len(tiles) {
		closes := false
		if hasLR {
			cnt--
			closes = cnt == 0
		}
		var pt uint64
		for l, w := range tiles[j][:nl] {
			if hasRuns {
				g.runs[l] += uint32(bits.OnesCount64((w ^ (w<<1 | prev>>uint(l)&1)) | first))
			}
			if hasBF {
				g.bfEps[l] += uint32(bits.OnesCount64(w))
			}
			if hasLR {
				r, m := int(g.lrRun[l]), int(g.lrMax[l])
				lead := bits.TrailingZeros64(^w)
				m = max(m, min(r+lead, hi))
				if lead == 64 {
					r = min(r+64, hi)
				} else {
					run := 0
					for y := w; y != 0; y &= y >> 1 {
						run++
					}
					m, r = max(m, min(run, hi)), min(bits.LeadingZeros64(^w), hi)
				}
				if closes {
					g.lrCls[l<<3|(min(max(m, lo), hi)-lo)]++
					m, r = 0, 0
				}
				g.lrRun[l], g.lrMax[l] = uint32(r), uint32(m)
			}
			sum, low, high := hwfast.Walk(w, 64)
			d, x := int64(g.dMin[l]), int64(g.dMax[l])
			dr, ri := max(0, -low-d), max(0, high-x)
			g.drops[l] += uint32(dr)
			g.rises[l] += uint32(ri)
			g.dMin[l], g.dMax[l] = uint32(d+dr+sum), uint32(x+ri-sum)
			pt |= w >> 63 << uint(l)
		}
		prev = pt
	}
	g.prevT = prev
}

// absorbSubBlocks closes every sub-tile block of a burst starting at the
// group's offset. Each block lies inside one word, so block frequency
// stores the block's masked POPCNT straight into the bank and longest run
// classifies the word's blocks straight into the class counters; bfEps,
// lrMax and lrRun stay zero, as hwfast holds them at every word boundary
// of such a design.
//
// Longest run uses hwfast's run-length erosion (x &= x>>1 removes one bit
// from every run), applied to all blocks of a word at once: clearing each
// block's top bit after the shift keeps runs from eroding across block
// boundaries, so after t−1 steps a block is nonzero exactly when its
// longest run is ≥ t. A SWAR test sets a block's top bit when the block
// is nonzero, and the POPCNT of those bits counts the blocks at each
// threshold; differences of consecutive counts are the class counts.
func (g *Group) absorbSubBlocks(tiles [][64]uint64) {
	bfM, lrM := g.bfM, g.lrM
	nl := bits.Len64(g.active)
	lo, hi := g.lrLo, g.lrHi
	var top uint64 // the top bit of every longest-run block
	if lrM > 0 && lrM < 64 {
		top = ^uint64(0) / (1<<uint(lrM) - 1) << uint(lrM-1)
	}
	for j := range tiles {
		lanes := tiles[j][:nl]
		if bfM > 0 && bfM < 64 {
			mask := uint64(1)<<uint(bfM) - 1
			base := (g.off + 64*j) / bfM * 64
			for l, w := range lanes {
				for b, k := base+l, 0; k < 64; b, k = b+64, k+bfM {
					g.bfBank[b] = uint32(bits.OnesCount64(w >> uint(k) & mask))
				}
			}
		}
		if lrM > 0 && lrM < 64 {
			for l, w := range lanes {
				cls := g.lrCls[l<<3 : l<<3+8]
				above := uint32(64 / lrM) // blocks whose longest run reached the last threshold
				for t := 1; t <= hi; t++ {
					if t > 1 {
						w &= w >> 1 &^ top
					}
					if t > lo {
						n := uint32(bits.OnesCount64((w&^top + ^top | w) & top))
						cls[t-1-lo] += above - n
						above = n
					}
				}
				cls[hi-lo] += above
			}
		}
	}
}
