package fleet

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/online"
)

// designSliceable returns a custom n=128 design holding only the four
// word-parallelizable tests plus block frequency — no residual engines, so
// a BitSliced pool takes the skip-feed path where monitors are never fed
// mid-sequence and the online trackers must be fed from the tile loop.
func designSliceable(t testing.TB) hwblock.Config {
	t.Helper()
	cfg, err := hwblock.NewCustomConfig("sliceable-128", 128, []int{1, 2, 3, 4, 13})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// clearOnline strips the online-only report fields, for comparing an
// observation-mode run against an online-off reference.
func clearOnline(r StreamReport) StreamReport {
	r.OnlineScore = 0
	r.OnlineAlarmed = false
	r.OnlineDetectedAt = -1
	return r
}

// TestChaosOnlineObservationIsInvisible is the online-off equivalence
// proof: a concurrent chaos fleet with online scoring in observation mode
// (Online set, OnlineQuarantine off) must produce, for every stream,
// a report byte-identical — verdicts, conditions, counters, incident
// timeline — to the same stream's serial replay with online scoring
// disabled entirely. Observation mode buys the score fields and gauges
// and changes nothing else.
func TestChaosOnlineObservationIsInvisible(t *testing.T) {
	const streams = 128
	cfg := testConfig(t)
	cfg.Shards = 4
	cfg.Policy = Block
	cfg.Online = &online.Config{}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]StreamReport, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			s, err := p.Register(fmt.Sprintf("obs-%03d", idx))
			if err != nil {
				t.Errorf("register %d: %v", idx, err)
				return
			}
			for _, op := range chaosOps(idx) {
				if err := op.Apply(s); err != nil {
					t.Errorf("stream %d: %v", idx, err)
					return
				}
			}
			reports[idx] = s.Detach()
		}(i)
	}
	wg.Wait()
	p.Shutdown()

	offCfg := testConfig(t) // Online nil: the PR 7-era reference path
	alarmed := 0
	for i := range reports {
		if reports[i].OnlineAlarmed {
			alarmed++
		}
		want, err := ReplaySerial(offCfg, reports[i].Tenant, chaosOps(i))
		if err != nil {
			t.Fatal(err)
		}
		assertReportsIdentical(t, clearOnline(reports[i]), want)
	}
	// The equivalence must have been tested against live trackers, not a
	// zoo too tame to ever score.
	if alarmed == 0 {
		t.Fatal("no tracker alarmed: the observation-mode equivalence was vacuous")
	}
}

// TestChaosOnlineBitSlicedTrajectory proves a stream's anomaly-score
// trajectory is byte-identical between bit-sliced and serial ingest, on
// the skip-feed design where mid-sequence bits reach the trackers only
// through the tile loop: every report — including OnlineScore and
// OnlineDetectedAt, floats produced by thousands of EWMA updates — must
// equal the stream's serial replay under the same online config.
func TestChaosOnlineBitSlicedTrajectory(t *testing.T) {
	const streams = 96
	reg := obs.NewRegistry()
	cfg := Config{
		Design:     designSliceable(t),
		Alpha:      0.01,
		Shards:     4,
		QueueDepth: 64,
		Policy:     Block,
		BitSliced:  true,
		Online:     &online.Config{},
		Obs:        reg,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.skipFeed {
		t.Fatal("sliceable-only design did not select the skip-feed path")
	}
	reports := make([]StreamReport, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			s, err := p.Register(fmt.Sprintf("traj-%03d", idx))
			if err != nil {
				t.Errorf("register %d: %v", idx, err)
				return
			}
			for _, op := range slicedChaosOps(idx) {
				if err := op.Apply(s); err != nil {
					t.Errorf("stream %d: %v", idx, err)
					return
				}
			}
			reports[idx] = s.Detach()
		}(i)
	}
	wg.Wait()
	p.Shutdown()

	serialCfg := Config{
		Design: designSliceable(t), Alpha: 0.01, Shards: 1, QueueDepth: 64,
		Online: &online.Config{},
	}
	alarmed := 0
	for i := range reports {
		if reports[i].OnlineAlarmed {
			alarmed++
		}
		want, err := ReplaySerial(serialCfg, reports[i].Tenant, slicedChaosOps(i))
		if err != nil {
			t.Fatal(err)
		}
		assertReportsIdentical(t, reports[i], want)
	}
	if alarmed == 0 {
		t.Fatal("no tracker alarmed under slicing: trajectory identity was vacuous")
	}
	// The run must actually have exercised the tile-loop tracker feed.
	if v := reg.Counter("fleet_sliced_tiles_total", "").Value(); v == 0 {
		t.Fatal("no transposed tile was ever absorbed")
	}
	if v := reg.Counter("fleet_online_alarms_total", "").Value(); v != uint64(alarmed) {
		t.Fatalf("fleet_online_alarms_total = %d, want %d", v, alarmed)
	}
}

// TestOnlineQuarantineLatchesStream proves quarantine-on-score: a stream
// whose tracker confirms an anomaly is latched out of service at its next
// sequence boundary through the standard alarm path (AlarmLatched,
// StatFail, EventAlarmLatched naming the score), later batches are
// discarded, a healthy tenant on the same pool is untouched, and the whole
// outcome is byte-identical to its serial replay under the same config.
func TestOnlineQuarantineLatchesStream(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(t)
	cfg.Online = &online.Config{}
	cfg.OnlineQuarantine = true
	cfg.PerTenantObs = true
	cfg.Obs = reg
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 40)
	for i := range ops {
		ops[i] = Op{Kind: OpWord, W: 0, N: 64} // stuck-at-zero
	}
	bad, err := p.Register("bad")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := op.Apply(bad); err != nil {
			t.Fatal(err)
		}
	}
	badRep := bad.Detach()

	good, err := p.Register("good")
	if err != nil {
		t.Fatal(err)
	}
	pushWords(t, good, 77, 40)
	goodRep := good.Detach()
	p.Shutdown()

	if !badRep.OnlineAlarmed || !badRep.AlarmLatched {
		t.Fatalf("stuck stream not latched: %+v", badRep)
	}
	if badRep.Condition != core.StatFail {
		t.Fatalf("condition %v, want StatFail", badRep.Condition)
	}
	if badRep.OnlineDetectedAt <= 128 {
		t.Fatalf("detection bit %d, want after the first full window", badRep.OnlineDetectedAt)
	}
	if badRep.DiscardedBatches == 0 {
		t.Fatal("no batch was discarded after the latch")
	}
	var latch *core.Event
	for i := range badRep.Events {
		if badRep.Events[i].Kind == core.EventAlarmLatched {
			latch = &badRep.Events[i]
		}
	}
	if latch == nil || !strings.Contains(latch.Detail, "online anomaly score") {
		t.Fatalf("latch event missing or unnamed: %+v", latch)
	}

	if goodRep.Condition != core.OK || goodRep.OnlineAlarmed || goodRep.OnlineDetectedAt != -1 {
		t.Fatalf("healthy tenant disturbed: %+v", goodRep)
	}

	if v := reg.Counter("fleet_online_alarms_total", "").Value(); v != 1 {
		t.Fatalf("fleet_online_alarms_total = %d, want 1", v)
	}
	if v := reg.Counter("fleet_alarm_latches_total", "").Value(); v != 1 {
		t.Fatalf("fleet_alarm_latches_total = %d, want 1", v)
	}
	if v := reg.Gauge("fleet_tenant_anomaly_score", "", "tenant", "bad").Value(); v != badRep.OnlineScore || v == 0 {
		t.Fatalf("per-tenant anomaly gauge %v, want final score %v (nonzero)", v, badRep.OnlineScore)
	}

	want, err := ReplaySerial(cfg, "bad", ops)
	if err != nil {
		t.Fatal(err)
	}
	// The replay config carries the registry; strip nothing — reports hold
	// no registry state, so full byte-identity applies.
	assertReportsIdentical(t, badRep, want)
}

// TestOnlineTrackerRecycling proves a recycled tracker carries nothing
// across tenants: a stream registered after an alarmed one detaches gets a
// tracker indistinguishable from fresh.
func TestOnlineTrackerRecycling(t *testing.T) {
	cfg := testConfig(t)
	cfg.Shards = 1
	cfg.Online = &online.Config{}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Register("first")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := first.Push(0, 64); err != nil {
			t.Fatal(err)
		}
	}
	if rep := first.Detach(); !rep.OnlineAlarmed {
		t.Fatalf("stuck stream never alarmed: %+v", rep)
	}
	second, err := p.Register("second")
	if err != nil {
		t.Fatal(err)
	}
	pushWords(t, second, 31, 16)
	rep := second.Detach()
	p.Shutdown()
	if rep.OnlineAlarmed || rep.OnlineDetectedAt != -1 {
		t.Fatalf("recycled tracker leaked alarm state: %+v", rep)
	}
	want, err := ReplaySerial(testConfigOnline(t), "second", wordOps(31, 16))
	if err != nil {
		t.Fatal(err)
	}
	assertReportsIdentical(t, rep, want)
}

// testConfigOnline is testConfig with default online scoring.
func testConfigOnline(t testing.TB) Config {
	cfg := testConfig(t)
	cfg.Online = &online.Config{}
	return cfg
}

// wordOps replays pushWords' seeded generator as an op list.
func wordOps(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpWord, W: rng.Uint64(), N: 64}
	}
	return ops
}

// TestOnlineConfigValidation pins the admission-time checks.
func TestOnlineConfigValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.OnlineQuarantine = true // without Online
	if _, err := New(cfg); err == nil {
		t.Fatal("OnlineQuarantine without Online did not error")
	}
	cfg = testConfig(t)
	cfg.Online = &online.Config{Window: 100} // not a multiple of 64
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid online window did not error")
	}
}

// TestOnlineResidualBitSlicedMatchesSerial covers the bit-sliced tile
// path that feeds both a lane's tracker and its monitor mid-sequence: a
// design with residual engines (templates and serial, tests 7, 8, 11, 12)
// keeps the monitor feed on, so each tile burst reaches every lane as
// tracker pushes plus one FeedWords call. Sixty-four tenants fill one lane
// group, one in eight biased hard enough for its tracker to alarm and one
// in eight pushing ragged 40-bit batches, in observation and in
// quarantine mode. Every report must equal its serial replay.
func TestOnlineResidualBitSlicedMatchesSerial(t *testing.T) {
	const tenants = 64 // one full lane group, so tiles absorb without pressure
	const batches = 256
	design, err := hwblock.NewCustomConfig("residual-1024", 1024, []int{1, 2, 3, 4, 7, 8, 11, 12, 13})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([][]Op, tenants)
	for i := range ops {
		rng := rand.New(rand.NewSource(int64(7_000 + i)))
		ops[i] = make([]Op, batches)
		for j := range ops[i] {
			switch i % 8 {
			case 0: // three ones in four
				ops[i][j] = Op{Kind: OpRun, Ws: []uint64{rng.Uint64() | rng.Uint64()}}
			case 1:
				ops[i][j] = Op{Kind: OpWord, W: rng.Uint64() & (1<<40 - 1), N: 40}
			default:
				ops[i][j] = Op{Kind: OpRun, Ws: []uint64{rng.Uint64()}}
			}
		}
	}
	for _, quarantine := range []bool{false, true} {
		reg := obs.NewRegistry()
		cfg := Config{
			Design:           design,
			Alpha:            0.01,
			Shards:           1,
			QueueDepth:       64,
			Policy:           Block,
			BitSliced:        true,
			Online:           &online.Config{},
			OnlineQuarantine: quarantine,
			Obs:              reg,
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.skipFeed {
			t.Fatal("a design with residual engines selected the skip-feed path")
		}
		streams := make([]*Stream, tenants)
		for i := range streams {
			if streams[i], err = p.Register(fmt.Sprintf("resid-%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < batches; j++ {
			for i, s := range streams {
				if err := ops[i][j].Apply(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		reports := make([]StreamReport, tenants)
		for i, s := range streams {
			reports[i] = s.Detach()
		}
		p.Shutdown()

		serialCfg := cfg
		serialCfg.BitSliced, serialCfg.Obs = false, nil
		alarmed := 0
		for i, r := range reports {
			if r.OnlineAlarmed {
				alarmed++
			}
			want, err := ReplaySerial(serialCfg, r.Tenant, ops[i])
			if err != nil {
				t.Fatal(err)
			}
			assertReportsIdentical(t, r, want)
		}
		if alarmed == 0 {
			t.Fatalf("quarantine=%v: no tracker alarmed: trajectory identity was vacuous", quarantine)
		}
		if v := reg.Counter("fleet_online_alarms_total", "").Value(); v != uint64(alarmed) {
			t.Fatalf("quarantine=%v: fleet_online_alarms_total = %d, want %d", quarantine, v, alarmed)
		}
		if v := reg.Counter("fleet_sliced_tiles_total", "").Value(); v == 0 {
			t.Fatalf("quarantine=%v: no tile was absorbed", quarantine)
		}
	}
}
