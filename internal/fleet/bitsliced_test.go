package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hwblock"
	"repro/internal/obs"
)

func design128Medium(t testing.TB) hwblock.Config {
	t.Helper()
	cfg, err := hwblock.NewConfig(128, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// slicedChaosOps extends the chaos defect zoo for the bit-sliced suite:
// the base op lists are too short to cross the lane-group pressure gate
// (they detach before buffering pressureBits), so one stream class gets
// a long healthy run that deterministically forces tile absorption, the
// next uses ragged 40-bit batches so 64-bit tile chunks straddle batch
// boundaries — covering the mid-batch cursor bookkeeping in gather64 and
// the partial-head drain on eviction — and a third pushes through the
// batched producer API in run lengths chosen to straddle the staging
// flush, covering PushWords' multi-slot publish and stage-full handoff.
func slicedChaosOps(idx int) []Op {
	ops := chaosOps(idx)
	rng := rand.New(rand.NewSource(int64(5_000_000 + idx)))
	switch idx % 4 {
	case 0:
		for i := 0; i < pressureBits/64+32; i++ { // crosses the pressure gate
			ops = append(ops, Op{Kind: OpWord, W: rng.Uint64(), N: 64})
		}
	case 1:
		for i := 0; i < fifoBatches+32; i++ { // overflows the fifo
			ops = append(ops, Op{Kind: OpWord, W: rng.Uint64() & (1<<40 - 1), N: 40})
		}
	case 2:
		// Runs longer than a stage, a misaligning remainder run, then a
		// short run that lands mid-stage — together they hit every
		// PushWords fill shape (stage-spanning, stage-filling, partial).
		for _, n := range []int{stageBatches + 17, stageBatches - 17, 7} {
			run := make([]uint64, n)
			for i := range run {
				run[i] = rng.Uint64()
			}
			ops = append(ops, Op{Kind: OpRun, Ws: run})
		}
	}
	return ops
}

// TestChaosBitSlicedMatchesSerial extends the chaos suite to bit-sliced
// ingest: 200 concurrent defect-zoo streams over two churn generations
// (register, push, detach, re-register) on a BitSliced pool must stay
// byte-identical to their serial replays — through lane adoption, group
// rollover, mid-sequence eviction on detach and hard faults, breaker
// trips at sequence boundaries and sub-word batches straddling tiles. The
// n=128 medium design keeps the residual serial-test engines live, so the
// lazy-de-transposition contract (templates and serial fed from the
// original words) is covered, not just the sliceable four.
func TestChaosBitSlicedMatchesSerial(t *testing.T) {
	const streams = 200
	const generations = 2
	reg := obs.NewRegistry()
	cfg := Config{
		Design:     design128Medium(t),
		Alpha:      0.01,
		Shards:     4,
		QueueDepth: 64,
		Policy:     Block, // lossless: every stream must match its serial run
		BitSliced:  true,
		Obs:        reg,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reports := make([]StreamReport, streams*generations)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			for gen := 0; gen < generations; gen++ {
				s, err := p.Register(fmt.Sprintf("sliced-%d-%03d", gen, idx))
				if err != nil {
					t.Errorf("register %d gen %d: %v", idx, gen, err)
					return
				}
				for _, op := range slicedChaosOps(gen*streams + idx) {
					if err := op.Apply(s); err != nil {
						t.Errorf("stream %d gen %d: %v", idx, gen, err)
						return
					}
				}
				reports[gen*streams+idx] = s.Detach()
			}
		}(i)
	}
	wg.Wait()
	p.Shutdown()

	serialCfg := Config{Design: design128Medium(t), Alpha: 0.01, Shards: 1, QueueDepth: 64}
	var sumOffered, sumAccepted, sumDiscarded int64
	sawBreaker, sawWatchdog := false, false
	for i := range reports {
		r := reports[i]
		if r.Shed() {
			t.Fatalf("stream %d shed batches under the Block policy", i)
		}
		want, err := ReplaySerial(serialCfg, r.Tenant, slicedChaosOps(i))
		if err != nil {
			t.Fatal(err)
		}
		assertReportsIdentical(t, r, want)
		sumOffered += r.OfferedBatches
		sumAccepted += r.AcceptedBatches
		sumDiscarded += r.DiscardedBatches
		sawBreaker = sawBreaker || r.BreakerTripped
		sawWatchdog = sawWatchdog || r.Watchdogs > 0
	}
	if !sawBreaker || !sawWatchdog {
		t.Fatalf("chaos zoo incomplete under slicing: breaker=%v watchdog=%v", sawBreaker, sawWatchdog)
	}
	if sumOffered != sumAccepted+sumDiscarded {
		t.Fatalf("batch accounting leak: offered %d != accepted %d + discarded %d",
			sumOffered, sumAccepted, sumDiscarded)
	}
	// The run must actually have exercised the sliced machinery, not have
	// quietly fallen back to serial ingest.
	if v := reg.Counter("fleet_sliced_adoptions_total", "").Value(); v == 0 {
		t.Fatal("no stream was ever adopted into a lane group")
	}
	if v := reg.Counter("fleet_sliced_tiles_total", "").Value(); v == 0 {
		t.Fatal("no transposed tile was ever absorbed")
	}
	for _, reason := range []string{"detach", "fault"} {
		if v := reg.Counter("fleet_sliced_evictions_total", "", "reason", reason).Value(); v == 0 {
			t.Fatalf("chaos churn never exercised %s evictions", reason)
		}
	}
	if v := reg.Gauge("fleet_sliced_lanes", "").Value(); v != 0 {
		t.Fatalf("fleet_sliced_lanes = %v after shutdown, want 0", v)
	}
}

// TestBitSlicedShedAccounting pins the staged-flush form of the shedding
// contract: under ShedNewest a congested flush drops the whole stage, and
// every batch still lands in exactly one outcome bucket.
func TestBitSlicedShedAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Design:     design128(t),
		Alpha:      0.01,
		Shards:     1,
		QueueDepth: 1,
		Policy:     ShedNewest,
		BitSliced:  true,
		Obs:        reg,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const producers = 16
	const pushes = 20 * stageBatches
	reports := make([]StreamReport, producers)
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			s, err := p.Register(fmt.Sprintf("shed-%02d", idx))
			if err != nil {
				t.Errorf("register %d: %v", idx, err)
				return
			}
			rng := rand.New(rand.NewSource(int64(idx)))
			for j := 0; j < pushes; j++ {
				if err := s.Push(rng.Uint64(), 64); err != nil && !errors.Is(err, ErrShed) {
					t.Errorf("stream %d: %v", idx, err)
					return
				}
			}
			reports[idx] = s.Detach()
		}(i)
	}
	wg.Wait()
	p.Shutdown()
	var totalShed uint64
	for i, r := range reports {
		if r.OfferedBatches != pushes {
			t.Fatalf("stream %d offered %d, want %d", i, r.OfferedBatches, pushes)
		}
		if r.AcceptedBatches+r.ShedBatches+r.DiscardedBatches != r.OfferedBatches {
			t.Fatalf("stream %d: offered %d != accepted %d + shed %d + discarded %d",
				i, r.OfferedBatches, r.AcceptedBatches, r.ShedBatches, r.DiscardedBatches)
		}
		if r.ShedBatches%stageBatches != 0 {
			t.Fatalf("stream %d shed %d batches, not a whole number of stages", i, r.ShedBatches)
		}
		totalShed += uint64(r.ShedBatches)
	}
	if v := reg.Counter("fleet_batches_total", "", "outcome", "shed").Value(); v != totalShed {
		t.Fatalf("aggregate shed counter = %d, want %d", v, totalShed)
	}
}

// TestBitSlicedValidation pins the admission-time design check: a design
// the slicing engine cannot express (here a sequence length that is not a
// whole number of 64-bit tiles) is rejected at New, not at first adoption.
func TestBitSlicedValidation(t *testing.T) {
	design := design128(t)
	design.N = 96
	if _, err := New(Config{Design: design, Alpha: 0.01, BitSliced: true}); err == nil {
		t.Fatal("BitSliced accepted a design hwslice cannot express")
	}
	// Every block length divides n=192, but M=48 neither divides 64 nor
	// is a multiple of it, so block boundaries fall mid-word.
	design = design128(t)
	design.N = 192
	design.Params.BlockFrequencyM = 48
	if _, err := New(Config{Design: design, Alpha: 0.01}); err != nil {
		t.Fatalf("serial ingest refused the n=192 design: %v", err)
	}
	if _, err := New(Config{Design: design, Alpha: 0.01, BitSliced: true}); err == nil {
		t.Fatal("BitSliced accepted block-frequency M=48")
	}
}

// TestBitSlicedPushZeroAllocMidSequence is the sliced twin of
// TestPushZeroAllocMidSequence: steady-state staged Push — staging,
// credit handshake, shard-side copy, lane fifo, tile transpose, engine
// absorb and external-mode monitor feed — performs zero heap allocations
// between sequence boundaries.
func TestBitSlicedPushZeroAllocMidSequence(t *testing.T) {
	cfg := Config{
		Design:     design65536(t),
		Alpha:      0.01,
		Shards:     1,
		QueueDepth: 4096,
		BitSliced:  true,
		Obs:        obs.NewRegistry(),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nStreams = 64
	streams := make([]*Stream, nStreams)
	for i := range streams {
		s, err := p.Register(fmt.Sprintf("steady-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	var words [256]uint64
	rng := rand.New(rand.NewSource(1))
	for i := range words {
		words[i] = rng.Uint64()
	}
	// Warm up: fill the lane group (adoption allocates the group and
	// engine once) and let every stream flush a few stages.
	for j := 0; j < 4*stageBatches; j++ {
		for _, s := range streams {
			if err := s.Push(words[j&255], 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The window stays far below one n=65536 sequence per stream, so no
	// boundary hand-back lands inside the measurement.
	i := 0
	allocs := testing.AllocsPerRun(800, func() {
		if err := streams[i%nStreams].Push(words[i&255], 64); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state sliced Push allocates %.1f times per op, want 0", allocs)
	}
	p.Shutdown()
}

// TestPushWordsDetachRace drives both producer APIs into concurrent
// Detach calls: the staging publish and the detach flush race, and the
// resolution contract is that every word of a nil-returning push was
// drained and accounted, while an ErrDetached call delivers at most a
// prefix — so a report can never show fewer offered batches than its
// producer believes were delivered, and the accounting identity holds
// through every interleaving. PushWords publishes multi-slot runs across
// stage boundaries; single-word Push publishes one ragged batch (1–64
// bits) per call.
func TestPushWordsDetachRace(t *testing.T) {
	producers := []struct {
		name string
		// push offers one randomly sized run and returns how many batches
		// it carried.
		push func(s *Stream, rng *rand.Rand, run []uint64) (int, error)
	}{
		{"PushWords", func(s *Stream, rng *rand.Rand, run []uint64) (int, error) {
			n := 1 + rng.Intn(len(run))
			for j := 0; j < n; j++ {
				run[j] = rng.Uint64()
			}
			return n, s.PushWords(run[:n])
		}},
		{"Push", func(s *Stream, rng *rand.Rand, _ []uint64) (int, error) {
			return 1, s.Push(rng.Uint64(), 1+rng.Intn(64))
		}},
	}
	for _, prod := range producers {
		t.Run(prod.name, func(t *testing.T) {
			cfg := Config{
				Design:     design128(t),
				Alpha:      0.01,
				Shards:     2,
				QueueDepth: 4,
				Policy:     Block,
				BitSliced:  true,
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rounds := 200
			if testing.Short() {
				rounds = 40
			}
			for i := 0; i < rounds; i++ {
				s, err := p.Register(fmt.Sprintf("race-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				var believed atomic.Int64
				done := make(chan struct{})
				go func(seed int64) {
					defer close(done)
					rng := rand.New(rand.NewSource(seed))
					run := make([]uint64, 3*stageBatches)
					for {
						n, err := prod.push(s, rng, run)
						if err != nil {
							return
						}
						believed.Add(int64(n))
					}
				}(int64(9_000_000 + i))
				if i%8 != 0 {
					time.Sleep(time.Duration(i%5) * 10 * time.Microsecond)
				}
				rep := s.Detach()
				<-done
				if rep.OfferedBatches < believed.Load() {
					t.Fatalf("round %d: offered %d < %d batches the producer believes delivered",
						i, rep.OfferedBatches, believed.Load())
				}
				if rep.OfferedBatches != rep.AcceptedBatches+rep.DiscardedBatches {
					t.Fatalf("round %d: offered %d != accepted %d + discarded %d",
						i, rep.OfferedBatches, rep.AcceptedBatches, rep.DiscardedBatches)
				}
			}
			p.Shutdown()
		})
	}
}

// TestBitSlicedBurstyProducers pins sliced ingest under the bursty
// traffic shape, where lane groups run nearly empty: tenants push
// 512-word PushWords bursts in turn on an n=65536 high design (so the
// residual template and serial engines are live), and each one's second
// staged flush trips the pressure gate before anyone else has flushed, so
// every group absorbs with a single lane. A latecomer joins a rolled-over
// group beside its first tenant, the two absorb together, and the first
// tenant then detaches mid-sequence, leaving the latecomer's lane 1 above
// an empty lane 0 for the rest of its two sequences. Every report must
// equal its serial replay.
func TestBitSlicedBurstyProducers(t *testing.T) {
	design, err := hwblock.NewConfig(65536, hwblock.High)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := Config{
		Design:     design,
		Alpha:      0.01,
		Shards:     1,
		QueueDepth: 64,
		Policy:     Block,
		BitSliced:  true,
		Obs:        reg,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 512
	seqWords := design.N / 64
	streams := map[string]*Stream{}
	ops := map[string][]Op{}
	rngs := map[string]*rand.Rand{}
	register := func(name string) {
		s, err := p.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		streams[name] = s
		rngs[name] = rand.New(rand.NewSource(int64(len(streams))))
	}
	push := func(name string, words int) {
		ws := make([]uint64, words)
		for i := range ws {
			ws[i] = rngs[name].Uint64()
		}
		if err := streams[name].PushWords(ws); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops[name] = append(ops[name], Op{Kind: OpRun, Ws: ws})
	}
	reports := map[string]StreamReport{}
	detach := func(name string) { reports[name] = streams[name].Detach() }

	// One sequence each for a, b and c: every group holds one lane and
	// ends rolled over, at offset zero.
	for _, name := range []string{"a", "b", "c"} {
		register(name)
	}
	for i := 0; i < seqWords/burst; i++ {
		for _, name := range []string{"a", "b", "c"} {
			push(name, burst)
		}
	}
	// d joins a's group at lane 1. Once both lanes hold a stage and d a
	// second, the pressure gate opens and the pair absorbs 128 tiles;
	// then a leaves mid-sequence.
	register("d")
	push("d", stageBatches)
	push("a", stageBatches)
	push("d", stageBatches)
	detach("a")
	// a's Detach waited for the shard to process everything before it, so
	// the group is safe to inspect here.
	g := streams["d"].grp
	if g == nil || streams["d"].lane != 1 || g.lanes[0] != nil || g.nLanes != 1 || g.eng.Off() != stageBatches*64 {
		t.Fatalf("want d alone on lane 1 of a group at bit %d after a's detach", stageBatches*64)
	}
	// d finishes its two sequences in bursts, b and c their second.
	for _, n := range []int{burst, burst, burst, 2*seqWords - 2*stageBatches - 3*burst} {
		push("d", n)
		for _, name := range []string{"b", "c"} {
			if len(ops[name])*burst < 2*seqWords {
				push(name, burst)
			}
		}
	}
	for _, name := range []string{"b", "c", "d"} {
		detach(name)
	}
	p.Shutdown()

	serialCfg := Config{Design: design, Alpha: 0.01}
	wantSeqs := map[string]int{"a": 1, "b": 2, "c": 2, "d": 2}
	for name, r := range reports {
		if r.Sequences != wantSeqs[name] {
			t.Fatalf("%s evaluated %d sequences, want %d", name, r.Sequences, wantSeqs[name])
		}
		want, err := ReplaySerial(serialCfg, r.Tenant, ops[name])
		if err != nil {
			t.Fatal(err)
		}
		assertReportsIdentical(t, r, want)
	}
	if v := reg.Counter("fleet_sliced_tiles_total", "").Value(); v == 0 {
		t.Fatal("no tile was absorbed")
	}
	if v := reg.Counter("fleet_sliced_evictions_total", "", "reason", "overflow").Value(); v != 0 {
		t.Fatalf("%d overflow evictions: a lane left its group before its tenant detached", v)
	}
}

// TestVerifyReadoutSlicedMatchesSerial runs verified readout under seeded
// register-bus corruption on every tenant through a serial pool and a
// bit-sliced pool: the sliced pool's final-tile hand-back must double-read
// exactly what the serial path does, so every report — quarantines, breaker
// trips, event timeline — stays byte-identical. One tenant in sixteen is
// corrupted heavily enough that consecutive mismatches trip its breaker
// inside finalTile (the only place a health eviction happens); the rest see
// occasional mismatches.
func TestVerifyReadoutSlicedMatchesSerial(t *testing.T) {
	const tenants = 64 // one full lane group, so tiles absorb without pressure
	const words = 256
	run := func(sliced bool) ([]StreamReport, *obs.Registry) {
		reg := obs.NewRegistry()
		p, err := New(Config{
			Design:          design128Medium(t),
			Alpha:           0.01,
			Shards:          1,
			QueueDepth:      64,
			Policy:          Block,
			BitSliced:       sliced,
			VerifyReadout:   true,
			QuarantineLimit: 3,
			Obs:             reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		streams := make([]*Stream, tenants)
		corruptors := make([]*faultinject.RegCorruptor, tenants)
		for i := range streams {
			s, err := p.Register(fmt.Sprintf("verify-%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			rate := 0.0005
			if i%16 == 0 {
				rate = 0.5
			}
			// Installed before the first push, which orders it before any
			// shard-side read of the register file.
			corruptors[i] = faultinject.CorruptRegFile(s.mon.Block().RegFile(), rate, int64(1000+i))
			streams[i] = s
		}
		rng := rand.New(rand.NewSource(42))
		for w := 0; w < words; w++ {
			for _, s := range streams {
				if err := s.PushWords([]uint64{rng.Uint64()}); err != nil {
					t.Fatal(err)
				}
			}
		}
		reports := make([]StreamReport, tenants)
		for i, s := range streams {
			reports[i] = s.Detach()
			corruptors[i].Detach()
		}
		p.Shutdown()
		return reports, reg
	}
	want, _ := run(false)
	got, reg := run(true)

	mismatches, trips := 0, 0
	for i := range got {
		assertReportsIdentical(t, got[i], want[i])
		r := got[i]
		if r.OfferedBatches != r.AcceptedBatches+r.ShedBatches+r.SampledOutBatches+r.DiscardedBatches {
			t.Fatalf("%s: batch accounting broken: offered %d != accepted %d + shed %d + sampled %d + discarded %d",
				r.Tenant, r.OfferedBatches, r.AcceptedBatches, r.ShedBatches, r.SampledOutBatches, r.DiscardedBatches)
		}
		for _, ev := range r.Events {
			if ev.Detail == "register readout mismatch" {
				mismatches++
			}
		}
		if r.BreakerTripped {
			trips++
		}
	}
	if mismatches == 0 {
		t.Fatal("no readout-mismatch quarantine: the corruption never reached a verified evaluation")
	}
	if trips == 0 {
		t.Fatal("no breaker trip from consecutive readout mismatches")
	}
	if v := reg.Counter("fleet_sliced_evictions_total", "", "reason", "health").Value(); v == 0 {
		t.Fatal("no breaker trip inside finalTile: no lane was evicted for health")
	}
	if v := reg.Counter("fleet_sliced_tiles_total", "").Value(); v == 0 {
		t.Fatal("no transposed tile was ever absorbed")
	}
}

// TestRecycleFifo pins the lane-fifo recycler's guard: a fifo still
// holding bits never returns to the pool, and a drained one comes back
// empty with its ring rewound. (sync.Pool may drop what it is given, so
// the acquired fifo is either the recycled one or a fresh one; both must
// be empty.) TestChaosBitSlicedMatchesSerial's second churn generation
// runs on recycled fifos end to end.
func TestRecycleFifo(t *testing.T) {
	p := &Pool{}
	f := &laneFifo{}
	for i := 0; i < 3; i++ {
		f.put(uint64(i), 64)
	}
	f.put(7, 5)
	p.recycleFifo(f)
	if p.acquireFifo() == f {
		t.Fatal("a fifo holding bits was recycled")
	}
	for f.n > 0 {
		_, nb := f.pop()
		f.bits -= int(nb)
	}
	p.recycleFifo(f)
	g := p.acquireFifo()
	if g.head != 0 || g.tail != 0 || g.n != 0 || g.bits != 0 || g.cursor != 0 || g.ragged != 0 {
		t.Fatalf("acquired fifo not empty and rewound: head %d tail %d n %d bits %d cursor %d ragged %d",
			g.head, g.tail, g.n, g.bits, g.cursor, g.ragged)
	}
}
