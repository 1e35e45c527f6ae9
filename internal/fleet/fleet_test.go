package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/sweval"
	"repro/internal/trng"
)

// design128 is the shared small test design: one sequence per two 64-bit
// words, so lifecycle and boundary behaviour is cheap to exercise.
func design128(t testing.TB) hwblock.Config {
	t.Helper()
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func testConfig(t testing.TB) Config {
	return Config{Design: design128(t), Alpha: 0.01, Shards: 2, QueueDepth: 64}
}

// pushWords pushes n pseudo-random 64-bit words from a seeded generator.
func pushWords(t *testing.T, s *Stream, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := s.Push(rng.Uint64(), 64); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxStreams = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("a"); !errors.Is(err, ErrDuplicateTenant) {
		t.Fatalf("duplicate tenant: got %v, want ErrDuplicateTenant", err)
	}
	if _, err := p.Register("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("c"); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("over capacity: got %v, want ErrFleetFull", err)
	}
	// Detaching frees the slot and the tenant name.
	a.Detach()
	if _, err := p.Register("a"); err != nil {
		t.Fatalf("re-register after detach: %v", err)
	}
	p.Shutdown()
	if _, err := p.Register("d"); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown: got %v, want ErrShuttingDown", err)
	}
}

func TestStreamLifecycle(t *testing.T) {
	p, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Register("tenant")
	if err != nil {
		t.Fatal(err)
	}
	// Three full sequences plus one dangling word.
	pushWords(t, s, 1, 7)
	rep := s.Detach()
	if rep.Sequences != 3 || len(rep.Reports) != 3 {
		t.Fatalf("sequences = %d (reports %d), want 3", rep.Sequences, len(rep.Reports))
	}
	if rep.PartialBits != 64 {
		t.Fatalf("partial bits = %d, want 64", rep.PartialBits)
	}
	if rep.BitsSeen != 7*64 {
		t.Fatalf("bits seen = %d, want %d", rep.BitsSeen, 7*64)
	}
	if rep.OfferedBatches != 7 || rep.AcceptedBatches != 7 {
		t.Fatalf("batches offered/accepted = %d/%d, want 7/7", rep.OfferedBatches, rep.AcceptedBatches)
	}
	if got := s.Detach(); got.Sequences != rep.Sequences {
		t.Fatal("second Detach returned a different report")
	}
	if err := s.Push(0, 64); !errors.Is(err, ErrDetached) {
		t.Fatalf("push after detach: got %v, want ErrDetached", err)
	}
	if err := s.PushFault(trng.ErrTransient); !errors.Is(err, ErrDetached) {
		t.Fatalf("fault after detach: got %v, want ErrDetached", err)
	}
	if p.Active() != 0 {
		t.Fatalf("active = %d after detach, want 0", p.Active())
	}
}

func TestShutdownDrainsAndFlushesPartials(t *testing.T) {
	p, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"z", "a", "m"} {
		s, err := p.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		pushWords(t, s, int64(len(name)), 3) // 1 sequence + 64 partial bits
	}
	reports := p.Shutdown()
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	// Deterministic order: sorted by tenant.
	for i, want := range []string{"a", "m", "z"} {
		if reports[i].Tenant != want {
			t.Fatalf("report %d is %q, want %q", i, reports[i].Tenant, want)
		}
	}
	for _, r := range reports {
		if r.Sequences != 1 || r.PartialBits != 64 {
			t.Fatalf("%s: sequences=%d partial=%d, want 1/64 (queued batches must drain)",
				r.Tenant, r.Sequences, r.PartialBits)
		}
	}
	// Idempotent.
	if again := p.Shutdown(); len(again) != 0 {
		t.Fatalf("second shutdown returned %d reports, want 0", len(again))
	}
}

func TestFaultIsolationAndBreaker(t *testing.T) {
	cfg := testConfig(t)
	cfg.Shards = 1 // force the noisy and healthy tenants onto one shard
	cfg.QuarantineLimit = 4
	reg := obs.NewRegistry()
	cfg.Obs = reg
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := p.Register("noisy")
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := p.Register("healthy")
	if err != nil {
		t.Fatal(err)
	}
	hard := errors.New("bus torn off")

	// The noisy tenant: transient storm, then repeated mid-sequence hard
	// faults until its breaker trips; the healthy tenant interleaves clean
	// sequences on the same shard.
	healthyOps := make([]Op, 0, 64)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		if err := noisy.PushFault(trng.ErrTransient); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cfg.QuarantineLimit+2; i++ {
		if err := noisy.Push(rng.Uint64(), 64); err != nil { // half a sequence
			t.Fatal(err)
		}
		if err := noisy.PushFault(hard); err != nil {
			t.Fatal(err)
		}
		w := rng.Uint64()
		healthyOps = append(healthyOps, Op{Kind: OpWord, W: w, N: 64})
		if err := healthy.Push(w, 64); err != nil {
			t.Fatal(err)
		}
	}
	nr := noisy.Detach()
	hr := healthy.Detach()

	if !nr.BreakerTripped || nr.Condition != core.SourceFault {
		t.Fatalf("noisy: breaker=%v condition=%v, want tripped/source-fault", nr.BreakerTripped, nr.Condition)
	}
	if nr.Retries != 8 {
		t.Fatalf("noisy retries = %d, want 8", nr.Retries)
	}
	if nr.Quarantined != cfg.QuarantineLimit {
		t.Fatalf("noisy quarantined = %d, want %d", nr.Quarantined, cfg.QuarantineLimit)
	}
	if nr.DiscardedBatches == 0 {
		t.Fatal("noisy: batches after the breaker tripped must be counted as discarded")
	}
	if nr.Sequences != 0 {
		t.Fatalf("noisy evaluated %d sequences from quarantined bits", nr.Sequences)
	}

	// The healthy tenant is untouched: byte-identical to its serial run.
	serialCfg := testConfig(t)
	want, err := ReplaySerial(serialCfg, "healthy", healthyOps)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsIdentical(t, hr, want)

	// Degradation is observable, not silent.
	if v := reg.Counter("fleet_breaker_trips_total",
		"per-stream circuit breakers opened (stream out of service)").Value(); v != 1 {
		t.Fatalf("breaker trips counter = %d, want 1", v)
	}
	if v := reg.Counter("fleet_quarantines_total",
		"in-flight sequences discarded without evaluation").Value(); v != uint64(nr.Quarantined) {
		t.Fatalf("quarantine counter = %d, want %d", v, nr.Quarantined)
	}
}

// ingestModes runs a producer-side test once per ingest path: on a
// serial pool a congested offer drops one batch, on a bit-sliced pool it
// drops one whole staged buffer (stageBatches batches, one error).
var ingestModes = []struct {
	name      string
	bitSliced bool
	perDrop   int64
}{
	{"serial", false, 1},
	{"bitsliced", true, stageBatches},
}

// assertDropAccounting checks a congested stream's report and counters:
// drops come in whole units of perDrop batches per error the producer
// saw, offered = accepted + dropped, and the aggregate and per-tenant
// dropped counters agree with the report.
func assertDropAccounting(t *testing.T, reg *obs.Registry, r StreamReport, outcome string, dropped, errs, perDrop int64) {
	t.Helper()
	if dropped != errs*perDrop {
		t.Fatalf("report drops %d batches, producer saw %d drops of %d", dropped, errs, perDrop)
	}
	if r.AcceptedBatches+dropped != r.OfferedBatches {
		t.Fatalf("offered %d != accepted %d + dropped %d",
			r.OfferedBatches, r.AcceptedBatches, dropped)
	}
	if v := reg.Counter("fleet_batches_total", "", "outcome", outcome).Value(); v != uint64(dropped) {
		t.Fatalf("aggregate %s counter = %d, want %d", outcome, v, dropped)
	}
	if v := reg.Counter("fleet_tenant_dropped_batches_total", "", "tenant", r.Tenant).Value(); v != uint64(dropped) {
		t.Fatalf("per-tenant dropped counter = %d, want %d", v, dropped)
	}
}

func TestShedNewestAccounting(t *testing.T) {
	for _, mode := range ingestModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Shards = 1
			cfg.QueueDepth = 1
			cfg.Policy = ShedNewest
			cfg.BitSliced = mode.bitSliced
			reg := obs.NewRegistry()
			cfg.Obs = reg
			cfg.PerTenantObs = true
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := p.Register("burst")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			shed := int64(0)
			const offered = 4096
			for i := 0; i < offered; i++ {
				err := s.Push(rng.Uint64(), 64)
				if errors.Is(err, ErrShed) {
					shed++
				} else if err != nil {
					t.Fatal(err)
				}
			}
			r := s.Detach()
			if r.OfferedBatches != offered {
				t.Fatalf("offered = %d, want %d", r.OfferedBatches, offered)
			}
			assertDropAccounting(t, reg, r, "shed", r.ShedBatches, shed, mode.perDrop)
			if r.ShedBatches > 0 {
				if !r.Shed() || r.Condition != core.Degraded {
					t.Fatalf("shed stream: Shed()=%v condition=%v, want true/degraded", r.Shed(), r.Condition)
				}
			}
			p.Shutdown()
		})
	}
}

func TestDegradeSampleKeepsSampledFraction(t *testing.T) {
	for _, mode := range ingestModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Shards = 1
			cfg.QueueDepth = 1
			cfg.Policy = DegradeSample
			cfg.SampleEvery = 4
			cfg.BitSliced = mode.bitSliced
			reg := obs.NewRegistry()
			cfg.Obs = reg
			cfg.PerTenantObs = true
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := p.Register("hot")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			sampledOut := int64(0)
			const offered = 2048
			for i := 0; i < offered; i++ {
				err := s.Push(rng.Uint64(), 64)
				if errors.Is(err, ErrSampledOut) {
					sampledOut++
				} else if err != nil {
					t.Fatal(err)
				}
			}
			r := s.Detach()
			if sampledOut == 0 {
				t.Fatal("expected congestion with a depth-1 queue")
			}
			if r.OfferedBatches != offered {
				t.Fatalf("offered = %d, want %d", r.OfferedBatches, offered)
			}
			assertDropAccounting(t, reg, r, "sampled-out", r.SampledOutBatches, sampledOut, mode.perDrop)
			// Degraded, not starved: the sampled fraction still flows.
			if r.AcceptedBatches == 0 {
				t.Fatal("degraded stream was starved — sampled batches must still be delivered")
			}
			if r.Condition != core.Degraded {
				t.Fatalf("condition = %v, want degraded", r.Condition)
			}
			p.Shutdown()
		})
	}
}

func TestSweepStalled(t *testing.T) {
	var mu sync.Mutex
	now := int64(1000)
	clock := func() int64 { mu.Lock(); defer mu.Unlock(); return now }
	tick := func(d time.Duration) { mu.Lock(); now += d.Nanoseconds(); mu.Unlock() }

	cfg := testConfig(t)
	cfg.StreamDeadline = time.Second
	cfg.Clock = clock
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alive, err := p.Register("alive")
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := p.Register("stalled")
	if err != nil {
		t.Fatal(err)
	}
	// Both streams start mid-sequence, then only one keeps pushing.
	pushWords(t, alive, 3, 1)
	pushWords(t, stalled, 4, 1)
	if n := p.SweepStalled(); n != 0 {
		t.Fatalf("swept %d streams before the deadline, want 0", n)
	}
	tick(2 * time.Second)
	pushWords(t, alive, 5, 1) // refreshes its stamp at t+2s
	if n := p.SweepStalled(); n != 1 {
		t.Fatalf("swept %d streams, want 1", n)
	}
	ar := alive.Detach()
	sr := stalled.Detach()
	if ar.Watchdogs != 0 || ar.Condition == core.Degraded {
		t.Fatalf("alive stream swept: %+v", ar)
	}
	if sr.Watchdogs != 1 || sr.Condition != core.Degraded {
		t.Fatalf("stalled stream: watchdogs=%d condition=%v, want 1/degraded", sr.Watchdogs, sr.Condition)
	}
	// The watchdog quarantined the in-flight half sequence.
	if sr.Quarantined != 1 || sr.Sequences != 0 {
		t.Fatalf("stalled stream: quarantined=%d sequences=%d, want 1/0", sr.Quarantined, sr.Sequences)
	}
	p.Shutdown()
}

func TestMonitorRecyclingDoesNotLeakAcrossTenants(t *testing.T) {
	cfg := testConfig(t)
	cfg.Shards = 1
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant A leaves a dirty monitor: pending partial word, mid-sequence
	// counters, history entries.
	a, err := p.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	pushWords(t, a, 42, 3)
	if err := a.Push(0xFFFF, 16); err != nil {
		t.Fatal(err)
	}
	a.Detach()

	// Tenant B reuses the recycled monitor; its verdicts must equal a
	// fresh serial run of the same words.
	b, err := p.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 0, 8)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 8; i++ {
		w := rng.Uint64()
		ops = append(ops, Op{Kind: OpWord, W: w, N: 64})
		if err := b.Push(w, 64); err != nil {
			t.Fatal(err)
		}
	}
	got := b.Detach()
	want, err := ReplaySerial(testConfig(t), "b", ops)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsIdentical(t, got, want)
	p.Shutdown()
}

// TestDetachedReportsSurviveRecycling guards the ownership hand-over at
// Detach: a detached stream's retained reports belong to its tenant, so
// tenants that later run on the recycled monitors — long enough to wrap
// their own report rings — must never write them. (A check that hashes
// the reports at Detach cannot see such aliasing; this one compares them
// against a deep copy afterwards.)
func TestDetachedReportsSurviveRecycling(t *testing.T) {
	design, err := hwblock.NewConfig(128, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Design: design, Alpha: 0.01, Shards: 2, QueueDepth: 64, KeepReports: 16}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	pushWords(t, a, 8, 2*40)
	got := a.Detach()
	if len(got.Reports) != 16 {
		t.Fatalf("tenant a retained %d reports, want 16", len(got.Reports))
	}
	want := make([]core.SequenceReport, len(got.Reports))
	for i, r := range got.Reports {
		rep := *r.Report
		rep.Verdicts = append([]sweval.Verdict(nil), rep.Verdicts...)
		want[i] = core.SequenceReport{Index: r.Index, StartBit: r.StartBit, Report: &rep}
	}
	for g := 0; g < 3; g++ {
		var next []*Stream
		for i := 0; i < 4; i++ {
			s, err := p.Register(fmt.Sprintf("g%d-%d", g, i))
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, s)
		}
		for i, s := range next {
			pushWords(t, s, int64(100*g+i), 2*24)
		}
		for _, s := range next {
			if r := s.Detach(); r.Sequences != 24 {
				t.Fatalf("tenant %s completed %d sequences, want 24", r.Tenant, r.Sequences)
			}
		}
	}
	if !reflect.DeepEqual(got.Reports, want) {
		t.Fatal("tenant a's detached reports changed while later tenants ran on the recycled monitors")
	}
	p.Shutdown()
}

func TestAlarmPolicyLatchesStream(t *testing.T) {
	cfg := testConfig(t)
	cfg.AlarmThreshold = 2
	cfg.Shards = 1
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Register("dead")
	if err != nil {
		t.Fatal(err)
	}
	// A stuck-at-zero source fails every sequence; AIS-31 retest semantics
	// latch on the second consecutive failure.
	for i := 0; i < 10; i++ {
		if err := s.Push(0, 64); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Detach()
	if !r.AlarmLatched || r.Condition != core.StatFail {
		t.Fatalf("latched=%v condition=%v, want true/stat-fail", r.AlarmLatched, r.Condition)
	}
	if r.Sequences != 2 {
		t.Fatalf("evaluated %d sequences, want 2 (latch stops evaluation)", r.Sequences)
	}
	if r.DiscardedBatches == 0 {
		t.Fatal("batches after the latch must be counted as discarded")
	}
	p.Shutdown()
}

func TestParseShedPolicy(t *testing.T) {
	for _, p := range []ShedPolicy{Block, ShedNewest, DegradeSample} {
		got, err := ParseShedPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseShedPolicy("nope"); err == nil {
		t.Fatal("want error for unknown policy")
	}
}
