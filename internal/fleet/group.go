package fleet

import (
	"math/bits"

	"repro/internal/hwslice"
	"repro/internal/obs"
)

// Bit-sliced ingest (Config.BitSliced) regroups a shard's resident streams
// into lane groups of up to 64 and advances their word-parallelizable
// statistics through one shared hwslice engine, a burst of 64-bit tiles
// at a time. The contract with the serial path is exact: every stream's
// verdicts, accounting and incident timeline stay byte-identical to its
// serial replay — slicing changes the arithmetic, never the semantics.
const (
	// stageBatches is the producer-side staging depth: Push accumulates
	// this many batches under the stream mutex and hands them to the shard
	// as one queue item, amortizing the channel handoff that dominates the
	// serial per-push cost. At 128, a stage of full batches is exactly two
	// tiles per lane.
	stageBatches = 128
	// fifoBatches bounds each lane's shard-side batch buffer. At minimum
	// batch size (1 bit) it still holds four full tiles, so a lane can
	// always be advanced once every lane has a tile's worth of bits. It
	// also holds two full staged flushes, so one producer's flush never
	// lands on an already-overflowing fifo in steady state.
	fifoBatches = 256
	// tileBurst caps how many tiles one advance gathers and absorbs per
	// lane: bursting amortizes the per-lane fifo bookkeeping (head, count,
	// readiness) over up to this many tiles, which matters because a
	// staged flush lands a whole stage's worth of tiles on a lane at once.
	tileBurst = 16
	// pressureBits lets a partially-populated group start absorbing tiles:
	// a group at offset zero normally waits for 64 lanes, because once
	// absorption starts no lane can join until rollover and latecomers
	// open groups of their own. The wait buys no cheaper tiles: the engine
	// works only up to the highest attached lane, so its absorb cost per
	// lane-word is about the same at any occupancy (BenchmarkHWSliceAbsorb
	// on n65536-light: about 24 ns at 1 lane, 44 at 8, 51 at 64). A lane
	// buffering this much is starving, and the group advances with the
	// lanes it has. It must exceed one full staged flush (stageBatches *
	// 64 bits), or a single producer's first flush would trip the gate and
	// strand the group under-populated for a whole sequence.
	pressureBits = stageBatches*64 + stageBatches*32
)

// laneFifo buffers one grouped stream's batches between the shard handoff
// and tile assembly. Batches keep their identity (word + length) rather
// than being repacked into a bit queue: batch-granular records are what
// keep the accounting and the breaker semantics — which act on batch
// boundaries — byte-identical to the serial path.
type laneFifo struct {
	ws     [fifoBatches]uint64
	ls     [fifoBatches]uint8
	head   int
	tail   int
	n      int
	cursor int // bits already consumed from the head batch
	bits   int // unconsumed bits across all buffered batches
	ragged int // buffered batches shorter than 64 bits
}

func (f *laneFifo) put(w uint64, nb uint8) {
	f.ws[f.tail] = w
	f.ls[f.tail] = nb
	f.tail = (f.tail + 1) % fifoBatches
	f.n++
	f.bits += int(nb)
	if nb != 64 {
		f.ragged++
	}
}

// putAll bulk-inserts cnt staged batches in one (possibly wrapped) copy
// pair, replacing cnt put calls on the flush path. Returns false without
// inserting anything when the batches don't all fit — the caller falls
// back to the per-batch overflow-relief path.
func (f *laneFifo) putAll(ws *[stageBatches]uint64, ls *[stageBatches]uint8, cnt int) bool {
	if f.n+cnt > fifoBatches {
		return false
	}
	n1 := fifoBatches - f.tail
	if n1 > cnt {
		n1 = cnt
	}
	copy(f.ws[f.tail:], ws[:n1])
	copy(f.ls[f.tail:], ls[:n1])
	copy(f.ws[:cnt-n1], ws[n1:cnt])
	copy(f.ls[:cnt-n1], ls[n1:cnt])
	f.tail = (f.tail + cnt) % fifoBatches
	f.n += cnt
	nb, rag := 0, 0
	for i := 0; i < cnt; i++ {
		nb += int(ls[i])
		if ls[i] != 64 {
			rag++
		}
	}
	f.bits += nb
	f.ragged += rag
	return true
}

func (f *laneFifo) pop() (uint64, uint8) {
	w, nb := f.ws[f.head], f.ls[f.head]
	f.head = (f.head + 1) % fifoBatches
	f.n--
	if nb != 64 {
		f.ragged--
	}
	return w, nb
}

// laneGroup binds up to 64 resident streams to one hwslice engine. Owned
// by the shard goroutine; all methods run there.
type laneGroup struct {
	eng    *hwslice.Group
	lanes  [64]*Stream
	nLanes int
	// ready counts attached lanes holding at least a tile's worth of
	// buffered bits, maintained at every fifo transition so advancing is
	// an O(1) readiness check per batch instead of a lane scan.
	ready int
	lw    [64]uint64            // lane-major tile for the final-tile path
	lwK   [tileBurst][64]uint64 // burst of gathered tiles, tile-major
	// accepted accumulates per-lane batch acceptances from the tile loop;
	// folding them into the stream's own counter is deferred to evict so
	// the hot loop dirties four group-local cache lines instead of one
	// Stream line per lane.
	accepted [64]uint32
}

// adopt places an unsliced, healthy, sequence-aligned stream into a lane
// group: an existing group still at offset zero if one has room, else a
// fresh (or recycled) engine. On any engine refusal the stream simply
// stays on the serial path.
func (sh *shard) adopt(s *Stream) {
	var g *laneGroup
	for _, cand := range sh.groups {
		if cand.eng.Off() == 0 && cand.nLanes < 64 {
			g = cand
			break
		}
	}
	if g == nil {
		cfg := &sh.pool.cfg
		eng, err := hwslice.New(cfg.Design.N, cfg.Design.Tests, cfg.Design.Params)
		if err != nil {
			return // withDefaults validated this; stay serial if it ever trips
		}
		g = &laneGroup{eng: eng}
		sh.groups = append(sh.groups, g)
	}
	// The lowest free lane keeps the group packed from lane 0 up: a tile
	// costs the engine, and step's per-lane loops, one lane's work for
	// every lane up to the highest attached one, so a hole left by an
	// eviction is refilled before the group grows upward.
	lane := bits.TrailingZeros64(^g.eng.Active())
	if err := g.eng.Attach(lane); err != nil {
		return
	}
	if err := s.mon.Block().SetSliced(true); err != nil {
		g.eng.Detach(lane)
		return
	}
	g.lanes[lane] = s
	g.nLanes++
	s.grp, s.lane = g, lane
	fo := &sh.pool.fobs
	fo.slicedAdoptions.Inc()
	fo.slicedLanes.Add(1)
}

// fifoPut buffers one batch for a grouped stream, relieving overflow by
// advancing the group (forced past the population gate) and, when a
// straggler lane is starving everyone below the tile threshold, evicting
// it to the serial path. Eviction is safe at any tile boundary, so the
// group never deadlocks on a slow or silent producer.
func (sh *shard) fifoPut(s *Stream, w uint64, nb uint8) {
	for s.grp != nil && s.fifo.n == fifoBatches {
		g := s.grp
		straggler := g.minLane()
		if straggler != s {
			g.evict(sh, straggler, false, sh.pool.fobs.slicedEvictOverflow) //trnglint:alloc overflow relief: eviction is the degraded path
			g.tryAdvance(sh, true)
			continue
		}
		// This lane is both the fullest and the least-buffered: it is the
		// only lane left. A full fifo holds at least two tiles, so a
		// forced advance always makes room.
		g.tryAdvance(sh, true)
		if s.fifo.n == fifoBatches {
			g.evict(sh, s, false, sh.pool.fobs.slicedEvictOverflow) //trnglint:alloc overflow relief: eviction is the degraded path
		}
	}
	if s.grp == nil {
		s.ingestWord(w, int(nb))
		return
	}
	pre := s.fifo.bits
	s.fifo.put(w, nb)
	if pre < 64 && s.fifo.bits >= 64 {
		s.grp.ready++
	}
}

// minLane returns the attached stream with the fewest buffered bits. Like
// every per-lane loop here, it stops at the highest attached lane.
func (g *laneGroup) minLane() *Stream {
	var min *Stream
	for _, s := range g.lanes[:bits.Len64(g.eng.Active())] {
		if s != nil && (min == nil || s.fifo.bits < min.fifo.bits) {
			min = s
		}
	}
	return min
}

// tryAdvance absorbs tiles while every attached lane has one buffered
// (the ready counter makes that an O(1) check). force overrides the
// population gate (fifo overflow pressure).
func (g *laneGroup) tryAdvance(sh *shard, force bool) {
	for g.nLanes > 0 && g.ready == g.nLanes {
		if !force && g.eng.Off() == 0 && g.nLanes < 64 {
			max := 0
			for _, s := range g.lanes[:bits.Len64(g.eng.Active())] {
				if s != nil && s.fifo.bits > max {
					max = s.fifo.bits
				}
			}
			if max < pressureBits {
				return
			}
		}
		g.step(sh)
	}
}

// step advances the group by a burst of k tiles, every one short of the
// sequence's final tile. The burst is gathered tile-major (up to tileBurst
// words per lane, bounded by the shallowest lane) and absorbed back to
// back, so the per-lane fifo bookkeeping amortizes across it. The lanes
// are then fed lane-major: each lane's online tracker takes its k words
// and, when the design has residual engines, its monitor clocks the same
// k words through them in external mode in one FeedWords call — the
// original lane-major words, never reconstructed from the transposed
// form. A mid-sequence burst reaches no sequence boundary, so nothing
// inside it can evaluate, stop, quarantine or alarm a stream: that is what
// makes consuming the whole burst from the fifos before feeding, and
// feeding each lane's words in one call, safe. The final tile of a
// sequence never enters the engine: finalTile hands each lane its
// sliceable state back and finishes the sequence on the full internal
// path, one word per lane through feedMonitor.
func (g *laneGroup) step(sh *shard) {
	fo := &sh.pool.fobs
	eng := g.eng
	off, n := eng.Off(), eng.N()
	if off == n-64 {
		g.finalTile(sh) //trnglint:alloc sequence-boundary hand-back, amortized over Design.N bits
		return
	}
	k := (n - 64 - off) / 64
	if k > tileBurst {
		k = tileBurst
	}
	// Lanes above the highest attached one are empty, and the engine
	// skips their columns too, so the per-lane loops below stop there.
	nl := bits.Len64(eng.Active())
	for _, s := range g.lanes[:nl] {
		if s == nil {
			continue
		}
		if t := s.fifo.bits >> 6; t < k {
			k = t
		}
	}
	acc := 0
	for l := 0; l < nl; l++ {
		s := g.lanes[l]
		if s == nil {
			continue
		}
		f := s.fifo
		// The ragged counter makes alignment O(1): with no short batch
		// buffered anywhere and no partially-consumed head, the next k
		// batches are all exactly one lane-word.
		if f.cursor == 0 && f.ragged == 0 {
			// Every consumed batch is exactly one lane-word: copy the run
			// out of the ring and update the bookkeeping once.
			for j, h := 0, f.head; j < k; j++ {
				g.lwK[j][l] = f.ws[h]
				h = (h + 1) % fifoBatches
			}
			f.head = (f.head + k) % fifoBatches
			f.n -= k
			f.bits -= k * 64
			g.accepted[l] += uint32(k)
			acc += k
		} else {
			for j := 0; j < k; j++ {
				g.lwK[j][l] = s.gather64(&acc)
			}
		}
		if f.bits < 64 {
			g.ready--
		}
	}
	fo.batchesAccepted.Add(uint64(acc))
	if err := eng.AbsorbTiles(g.lwK[:k]); err != nil {
		panic("fleet: lane group out of step: " + err.Error()) //trnglint:alloc impossible-state panic on the failure path
	}
	// Feeding after the whole burst preserves each stream's bit order
	// (tile j before j+1 per lane); the engine and the monitors share no
	// state between boundaries. With no residual engines (skipFeed) the
	// monitors have nothing to clock mid-sequence: the boundary hand-back
	// fast-forwards them, and only the trackers need the words. A tracker
	// takes its lane's words in the order the serial path pushes them, so
	// a stream's score trajectory is byte-identical either way.
	if feed := !sh.pool.skipFeed; feed || sh.pool.cfg.Online != nil {
		var ws [tileBurst]uint64
		for l := 0; l < nl; l++ {
			s := g.lanes[l]
			if s == nil {
				continue
			}
			if s.tracker != nil {
				for j := 0; j < k; j++ {
					s.tracker.Push(g.lwK[j][l], 64)
				}
			}
			if feed {
				for j := range ws[:k] {
					ws[j] = g.lwK[j][l]
				}
				if err := s.mon.FeedWords(ws[:k]); err != nil {
					panic(err)
				}
			}
		}
	}
	fo.slicedTiles.Add(uint64(k))
}

// finalTile absorbs nothing: each lane takes its sliceable state back via
// LoadWordStats and runs the sequence's last 64 bits through the full
// internal path, so evaluation, verification and alarm semantics are
// untouched by slicing.
func (g *laneGroup) finalTile(sh *shard) {
	fo := &sh.pool.fobs
	eng := g.eng
	// Evictions below only clear lanes, so the bound holds for both loops.
	nl := bits.Len64(eng.Active())
	acc := 0
	for l := 0; l < nl; l++ {
		if s := g.lanes[l]; s != nil {
			g.lw[l] = s.gather64(&acc)
			if s.fifo.bits < 64 {
				g.ready--
			}
		}
	}
	fo.batchesAccepted.Add(uint64(acc))
	for l := 0; l < nl; l++ {
		s := g.lanes[l]
		if s == nil {
			continue
		}
		eng.ExtractLane(l, &s.ws)
		if err := s.mon.LoadWordStats(&s.ws); err != nil {
			panic("fleet: sliced hand-back rejected: " + err.Error())
		}
		stopped := s.feedMonitor(g.lw[l], 64)
		if s.breakerOpen || s.latched {
			// The sequence took the stream out of service. stopped tells
			// us the serial contract for the partially-consumed head
			// batch: an early stop (evaluation error, alarm latch) drops
			// its remaining bits; a readout-mismatch breaker trip fed
			// them into the next sequence before stopping.
			g.evict(sh, s, stopped, fo.slicedEvictHealth)
			continue
		}
		if err := s.mon.Block().SetSliced(true); err != nil {
			g.evict(sh, s, false, fo.slicedEvictHealth)
		}
	}
	eng.Rollover()
	fo.slicedTiles.Inc()
}

// evict removes a stream from its lane group and returns it to the serial
// path: mid-sequence its sliceable state is handed back to its own
// monitor first (unless the boundary hand-back already happened), then
// every buffered bit drains through the normal serial ingest — same
// accounting, same breaker, same events as if the stream had never been
// sliced. dropPartial drops the partially-consumed head batch's remaining
// bits instead (the serial path stopped early inside that batch).
func (g *laneGroup) evict(sh *shard, s *Stream, dropPartial bool, why *obs.Counter) {
	eng := g.eng
	blk := s.mon.Block()
	if blk.Sliced() {
		if eng.Off() > 0 {
			eng.ExtractLane(s.lane, &s.ws)
			if err := s.mon.LoadWordStats(&s.ws); err != nil {
				panic("fleet: sliced hand-back rejected: " + err.Error())
			}
		} else if err := blk.SetSliced(false); err != nil {
			panic("fleet: leaving sliced mode: " + err.Error())
		}
	}
	eng.Detach(s.lane)
	g.lanes[s.lane] = nil
	g.nLanes--
	if s.fifo.bits >= 64 {
		g.ready--
	}
	s.acceptedBatches += int64(g.accepted[s.lane])
	g.accepted[s.lane] = 0
	s.grp = nil
	s.drainFifo(dropPartial)
	if g.nLanes == 0 {
		eng.Reset()
	}
	fo := &sh.pool.fobs
	why.Inc()
	fo.slicedLanes.Add(-1)
}

// gather64 assembles the lane's next 64 bits from its buffered batches.
// step copies aligned runs itself, so this loop serves ragged lanes and
// finalTile's once-per-sequence gather.
// Batch accounting happens here, at consumption: a batch is accepted when
// its first bit enters a tile — the moment the serial path would have
// accepted it — so the accounting identity survives any interleaving of
// slicing, eviction and breaker trips. Grouped lanes are always in
// service (an out-of-service stream is evicted on the spot), so every
// consumed batch is an accepted batch. Pool-level acceptance is
// accumulated into acc and flushed by the caller once per tile, keeping
// the shared atomic off the per-lane path.
func (s *Stream) gather64(acc *int) uint64 {
	f := s.fifo
	var w uint64
	got := 0
	for got < 64 {
		nb := int(f.ls[f.head])
		if f.cursor == 0 {
			s.acceptedBatches++
			*acc++
		}
		take := nb - f.cursor
		if take > 64-got {
			take = 64 - got
		}
		w |= f.ws[f.head] >> uint(f.cursor) & lowMask(take) << uint(got)
		f.cursor += take
		f.bits -= take
		got += take
		if f.cursor == nb {
			f.pop()
			f.cursor = 0
		}
	}
	return w
}

// drainFifo flushes every buffered bit through the serial path. The
// partially-consumed head batch was already accepted (its first bits are
// in absorbed tiles), so its remainder feeds the monitor directly — or is
// dropped when the serial contract says the stream stopped inside it.
// Whole batches go through ingestWord for full accounting (and are
// discarded there if the stream is out of service, exactly as serial
// delivery after a breaker trip would be).
func (s *Stream) drainFifo(dropPartial bool) {
	f := s.fifo
	if f.cursor > 0 {
		nb := int(f.ls[f.head])
		rem := nb - f.cursor
		if rem > 0 && !dropPartial {
			s.feedMonitor(f.ws[f.head]>>uint(f.cursor), rem)
		}
		f.bits -= rem
		f.pop()
		f.cursor = 0
	}
	for f.n > 0 {
		w, nb := f.pop()
		f.bits -= int(nb)
		s.ingestWord(w, int(nb))
	}
}

func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
