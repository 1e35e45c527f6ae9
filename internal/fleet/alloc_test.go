package fleet

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/obs"
)

func design65536(t testing.TB) hwblock.Config {
	t.Helper()
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestPushZeroAllocMidSequence is the strict form of the zero-alloc claim:
// between sequence boundaries, a fully instrumented Push — producer-side
// accounting, bounded-queue handoff, shard-side FeedWord into the hwfast
// ingest path — performs zero heap allocations.
func TestPushZeroAllocMidSequence(t *testing.T) {
	cfg := Config{
		Design:     design65536(t),
		Alpha:      0.01,
		Shards:     1,
		QueueDepth: 4096,
		Obs:        obs.NewRegistry(),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Register("steady")
	if err != nil {
		t.Fatal(err)
	}
	var words [256]uint64
	rng := rand.New(rand.NewSource(1))
	for i := range words {
		words[i] = rng.Uint64()
	}
	// Warm up: first pushes grow nothing, but let the shard spin up.
	for i := 0; i < 8; i++ {
		if err := s.Push(words[i], 64); err != nil {
			t.Fatal(err)
		}
	}
	// 801 runs x 64 bits + warm-up stays below one n=65536 sequence, so
	// the measurement window never crosses an evaluation boundary.
	i := 0
	allocs := testing.AllocsPerRun(800, func() {
		if err := s.Push(words[i&255], 64); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push allocates %.1f times per op, want 0", allocs)
	}
	p.Shutdown()
}

// BenchmarkFleetSteadyState gates the pooled steady-state ingest claim the
// way BenchmarkMonitorSteadyState does for a single monitor: 64 live
// streams multiplexed over the shard pool, full instrumentation attached,
// sequence evaluations amortized over the n=65536 sequence — the
// -benchmem allocs/op figure must report 0.
func BenchmarkFleetSteadyState(b *testing.B) {
	cfg := Config{
		Design:     design65536(b),
		Alpha:      0.01,
		Shards:     4,
		QueueDepth: 2048,
		Obs:        obs.NewRegistry(),
	}
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const nStreams = 64
	streams := make([]*Stream, nStreams)
	for i := range streams {
		s, err := p.Register("bench-" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = s
	}
	var words [1024]uint64
	rng := rand.New(rand.NewSource(2))
	for i := range words {
		words[i] = rng.Uint64()
	}
	b.ReportAllocs()
	b.SetBytes(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := streams[i%nStreams].Push(words[i&1023], 64); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	p.Shutdown()
}

// BenchmarkFleetBitSliced gates the bit-sliced aggregate ingest claim: the
// same 64 streams as BenchmarkFleetSteadyState, resident as one full lane
// group on a single shard (64+ streams/shard), on the same design and
// instrumentation, with Config.BitSliced routing the producer through
// staged batches (PushWords, the batched producer API: one atomic publish
// per staging fill instead of one per word) into the transposed
// lane-group engines. One op is one 64-bit batch, like the serial
// benchmark. It measures ≥4x faster than the serial fleet's ns/op (about
// 5.5x in BENCH_latest.json); that ratio is a measured figure, not a
// gate. make bench-diff gates this row on its own: ns/op against the
// archive, and 0 allocs/op. The staging credit protocol keeps the
// producer and shard sides pipelined.
func BenchmarkFleetBitSliced(b *testing.B) {
	cfg := Config{
		Design:     design65536(b),
		Alpha:      0.01,
		Shards:     1,
		QueueDepth: 2048,
		BitSliced:  true,
		Obs:        obs.NewRegistry(),
	}
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const nStreams = 64
	streams := make([]*Stream, nStreams)
	for i := range streams {
		s, err := p.Register("bench-" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = s
	}
	var words [1024]uint64
	rng := rand.New(rand.NewSource(2))
	for i := range words {
		words[i] = rng.Uint64()
	}
	// Fill every lane group before the timed section so adoption (the one
	// allocating step) is done and all 64 lanes per shard are resident.
	for j := 0; j < 2*stageBatches; j++ {
		for _, s := range streams {
			if err := s.Push(words[j&1023], 64); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.SetBytes(8)
	b.ResetTimer()
	const run = 64 // words per PushWords call; b.N still counts words
	for i, n := 0, 0; i < b.N; i += run {
		k := run
		if left := b.N - i; k > left {
			k = left
		}
		off := n * run & 1023
		if err := streams[n%nStreams].PushWords(words[off : off+k]); err != nil {
			b.Fatal(err)
		}
		n++
	}
	b.StopTimer()
	p.Shutdown()
}

// BenchmarkFleetRegisterDetach measures pooled stream churn: after the
// first generation, monitor recycling means a register/detach cycle
// allocates only the stream handle, never a hardware block or evaluator.
func BenchmarkFleetRegisterDetach(b *testing.B) {
	cfg := Config{
		Design:     design65536(b),
		Alpha:      0.01,
		Shards:     2,
		QueueDepth: 64,
	}
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := p.Register("churn")
	if err != nil {
		b.Fatal(err)
	}
	s.Detach() // prime the recycler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := p.Register("churn")
		if err != nil {
			b.Fatal(err)
		}
		s.Detach()
	}
	b.StopTimer()
	p.Shutdown()
}

// TestPushZeroAllocAcrossBoundary extends the zero-alloc claim across the
// sequence boundary. On n128-medium a sequence completes every two words,
// so each measured op pushes one whole sequence and waits for the shard to
// fold its verdict: evaluation, the retained-report ring (the default 16
// reports, full after 16 sequences) and full instrumentation together
// allocate nothing once the stream is warm, on the plain and on the
// verified readout.
func TestPushZeroAllocAcrossBoundary(t *testing.T) {
	design, err := hwblock.NewConfig(128, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	for _, verify := range []bool{false, true} {
		p, err := New(Config{
			Design:        design,
			Alpha:         0.01,
			Shards:        1,
			QueueDepth:    64,
			KeepReports:   DefaultKeepReports,
			VerifyReadout: verify,
			Obs:           obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Register("boundary")
		if err != nil {
			t.Fatal(err)
		}
		var words [256]uint64
		rng := rand.New(rand.NewSource(3))
		for i := range words {
			words[i] = rng.Uint64()
		}
		fo := &p.fobs
		seq := 0
		sequence := func() {
			for k := 0; k < 2; k++ {
				if err := s.Push(words[(2*seq+k)&255], 64); err != nil {
					t.Fatal(err)
				}
			}
			seq++
			for fo.seqPass.Value()+fo.seqFail.Value() < uint64(seq) {
				runtime.Gosched()
			}
		}
		for seq < DefaultKeepReports+4 {
			sequence()
		}
		if allocs := testing.AllocsPerRun(200, sequence); allocs != 0 {
			t.Errorf("verify=%v: a Push pair across a sequence boundary allocates %.2f times per op, want 0", verify, allocs)
		}
		if r := s.Detach(); r.Sequences != seq || r.Quarantined != 0 || len(r.Reports) != DefaultKeepReports {
			t.Errorf("verify=%v: %d sequences, %d quarantined, %d reports; want %d, 0, %d",
				verify, r.Sequences, r.Quarantined, len(r.Reports), seq, DefaultKeepReports)
		}
		p.Shutdown()
	}
}
