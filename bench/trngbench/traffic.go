package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hwblock"
	"repro/internal/online"
	"repro/internal/sweval"
)

// traffic is one workload's single producer. A repeat calls setup once on
// a fresh pool, round until the time box closes, then finish, which
// leaves every pushed word drained into a verdict and drops the traffic's
// references to the pool, so the next repeat's heap baseline holds none
// of it; check then compares every report the repeat produced against a
// reference.
type traffic interface {
	setup(p *fleet.Pool, tr *tracer) error
	round(tr *tracer) error
	finish(tr *tracer) error
	// timedWords is the number of 64-bit words pushed since setup.
	timedWords() float64
	// latencies are the Detach → report waits observed since setup.
	latencies() []time.Duration
	check(repeat int, log io.Writer) (attempted, failed int)
	// replayInputs are the workload's full sequences per lane, [lane][q]
	// → n/64 words, for the single-threaded layer replay.
	replayInputs() [][][]uint64
}

// summary is the part of a StreamReport the checks compare. The retained
// sequence reports and the incident timeline are folded into hashes, so a
// long churn run keeps a few words per tenant generation instead of every
// report.
type summary struct {
	Tenant                                  string
	Sequences, Passed, Failed               int
	Condition                               core.Condition
	Quarantined, Retries, Watchdogs, Faults int
	BreakerTripped, AlarmLatched            bool
	Offered, Accepted, Shed, Sampled, Disc  int64
	BitsSeen                                int64
	PartialBits                             int
	Reports, Events                         uint64
	OnlineScore                             float64
	OnlineAlarmed                           bool
	OnlineDetectedAt                        int64
}

func summarize(r *fleet.StreamReport) summary {
	return summary{
		Tenant: r.Tenant, Sequences: r.Sequences, Passed: r.Passed, Failed: r.Failed,
		Condition: r.Condition, Quarantined: r.Quarantined, Retries: r.Retries,
		Watchdogs: r.Watchdogs, Faults: r.Faults, BreakerTripped: r.BreakerTripped,
		AlarmLatched: r.AlarmLatched, Offered: r.OfferedBatches, Accepted: r.AcceptedBatches,
		Shed: r.ShedBatches, Sampled: r.SampledOutBatches, Disc: r.DiscardedBatches,
		BitsSeen: r.BitsSeen, PartialBits: r.PartialBits,
		Reports: hashReports(r.Reports), Events: hashEvents(r.Events),
		OnlineScore: r.OnlineScore, OnlineAlarmed: r.OnlineAlarmed, OnlineDetectedAt: r.OnlineDetectedAt,
	}
}

// identityHolds checks the batch accounting identity every report obeys.
func (s summary) identityHolds() bool {
	return s.Offered == s.Accepted+s.Shed+s.Sampled+s.Disc
}

// digest feeds little-endian integers and length-prefixed strings into
// 64-bit FNV-1a. hash.Hash writes never return an error.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	io.WriteString(d.h, s)
}

// hashReports folds each report's position, verdicts and evaluation cost.
func hashReports(rs []core.SequenceReport) uint64 {
	d := newDigest()
	for _, r := range rs {
		d.int(int64(r.Index))
		d.int(r.StartBit)
		for _, v := range r.Report.Verdicts {
			d.int(int64(v.TestID))
			if v.Pass {
				d.int(1)
			} else {
				d.int(0)
			}
			d.int(v.Statistic)
			d.int(v.Threshold)
			d.str(v.Note)
		}
		for _, c := range r.Report.Cost {
			d.int(int64(c))
		}
	}
	return d.h.Sum64()
}

func hashEvents(es []core.Event) uint64 {
	d := newDigest()
	for _, e := range es {
		d.int(int64(e.Kind))
		d.int(e.Bit)
		d.int(int64(e.Seq))
		d.str(e.Detail)
	}
	return d.h.Sum64()
}

// mismatch logs one failed comparison; at most a few per check are
// printed, all are counted.
func mismatch(log io.Writer, printed *int, format string, args ...any) {
	if *printed < 4 {
		fmt.Fprintf(log, "trngbench: MISMATCH "+format+"\n", args...)
	}
	*printed++
}

// ---- streaming workloads (sliced-light, sliced-light-online, serial-light, sliced-high-burst) ----

// streaming pushes every tenant's current sequence in interleaved turns of
// w.burst words; a round is one full sequence per tenant.
type streaming struct {
	w      workload
	design hwblock.Config
	words  [][][]uint64       // [tenant][p] → n/64 words
	refs   [][]*sweval.Report // core.Monitor reference per [tenant][p]
	names  []string

	pool    *fleet.Pool
	streams []*fleet.Stream
	k       int // sequences pushed per tenant this repeat
	lat     []time.Duration
	sums    []summary
}

func newStreaming(w workload, words [][][]uint64) (*streaming, error) {
	design, err := w.design()
	if err != nil {
		return nil, err
	}
	s := &streaming{w: w, design: design, words: words}
	for t := 0; t < tenants; t++ {
		s.names = append(s.names, fmt.Sprintf("tenant-%02d", t))
	}
	// The reference: one plain monitor run once over every distinct
	// sequence.
	mon, err := core.NewMonitor(design, alpha)
	if err != nil {
		return nil, err
	}
	s.refs = make([][]*sweval.Report, tenants)
	for t := range s.refs {
		s.refs[t] = make([]*sweval.Report, distinct)
		for p := range s.refs[t] {
			for _, w := range words[t][p] {
				rep, err := mon.FeedWord(w, 64)
				if err != nil {
					return nil, fmt.Errorf("reference monitor: %w", err)
				}
				if rep != nil {
					s.refs[t][p] = rep.Report
				}
			}
		}
	}
	return s, nil
}

func (s *streaming) setup(p *fleet.Pool, tr *tracer) error {
	s.pool, s.streams, s.k = p, s.streams[:0], 0
	s.lat, s.sums = s.lat[:0], s.sums[:0]
	for _, name := range s.names {
		t0 := tr.begin()
		st, err := p.Register(name)
		tr.end(lRegister, t0, 1)
		if err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
		s.streams = append(s.streams, st)
	}
	if err := s.round(tr); err != nil {
		return err
	}
	return drain(p)
}

// drain returns once the shard has processed everything queued so far: a
// probe stream's detach item is queued behind every earlier item of the
// single shard.
func drain(p *fleet.Pool) error {
	probe, err := p.Register("drain-probe")
	if err != nil {
		return fmt.Errorf("register drain probe: %w", err)
	}
	probe.Detach()
	return nil
}

func (s *streaming) round(tr *tracer) error {
	p := s.k % distinct
	stride := s.design.N / 64
	for off := 0; off < stride; off += s.w.burst {
		for t, st := range s.streams {
			ws := s.words[t][p][off : off+s.w.burst]
			t0 := tr.begin()
			err := st.PushWords(ws)
			tr.end(lPush, t0, int64(len(ws)))
			if err != nil {
				return fmt.Errorf("%s: push: %w", s.names[t], err)
			}
		}
	}
	s.k++
	return nil
}

func (s *streaming) finish(tr *tracer) error {
	for _, st := range s.streams {
		start := time.Now()
		t0 := tr.begin()
		rep := st.Detach()
		tr.end(lDetach, t0, 1)
		s.lat = append(s.lat, time.Since(start))
		s.sums = append(s.sums, summarize(&rep))
	}
	if left := s.pool.Shutdown(); len(left) != 0 {
		return fmt.Errorf("shutdown flushed %d streams that were already detached", len(left))
	}
	s.pool = nil
	clear(s.streams)
	return nil
}

func (s *streaming) timedWords() float64 {
	return float64((s.k - 1) * tenants * s.design.N / 64)
}

func (s *streaming) latencies() []time.Duration { return s.lat }
func (s *streaming) replayInputs() [][][]uint64 { return s.words }

// onlineChecked reports whether tenant t's online trajectory is checked in
// this repeat: four tenants per repeat, rotating through the fleet.
func onlineChecked(t, repeat int) bool {
	return ((t-4*repeat)%tenants+tenants)%tenants < 4
}

func (s *streaming) check(repeat int, log io.Writer) (attempted, failed int) {
	n := s.design.N
	stride := n / 64
	printed := 0
	for t, got := range s.sums {
		attempted++
		want := summary{
			Tenant: s.names[t], Sequences: s.k, Condition: core.OK,
			Offered: int64(s.k * stride), Accepted: int64(s.k * stride),
			BitsSeen: int64(s.k * n), Events: hashEvents(nil), OnlineDetectedAt: -1,
		}
		keep := fleet.DefaultKeepReports
		var retained []core.SequenceReport
		for k := 0; k < s.k; k++ {
			ref := s.refs[t][k%distinct]
			if ref.Pass() {
				want.Passed++
			} else {
				want.Failed++
			}
			if k >= s.k-keep {
				retained = append(retained, core.SequenceReport{Index: k, StartBit: int64(k * n), Report: ref})
			}
		}
		want.Reports = hashReports(retained)
		if s.w.online {
			want.OnlineScore, want.OnlineAlarmed, want.OnlineDetectedAt = got.OnlineScore, got.OnlineAlarmed, got.OnlineDetectedAt
			if onlineChecked(t, repeat) {
				score, alarmed, at, err := s.trackerRef(t)
				if err != nil {
					mismatch(log, &printed, "%s: online reference: %v", s.names[t], err)
					failed++
					continue
				}
				want.OnlineScore, want.OnlineAlarmed, want.OnlineDetectedAt = score, alarmed, at
			}
		}
		if !got.identityHolds() || got != want {
			mismatch(log, &printed, "%s/%s: got %+v, want %+v", s.w.name, s.names[t], got, want)
			failed++
		}
	}
	return attempted, failed
}

// trackerRef runs a standalone online tracker over everything tenant t
// pushed this repeat.
func (s *streaming) trackerRef(t int) (float64, bool, int64, error) {
	tr, err := online.New(s.design, online.Config{})
	if err != nil {
		return 0, false, 0, err
	}
	for k := 0; k < s.k; k++ {
		for _, w := range s.words[t][k%distinct] {
			tr.Push(w, 64)
		}
	}
	return tr.Score(), tr.Alarmed(), tr.DetectedAt(), nil
}

// ---- churn-n128 ----

// churn runs lock-step generations: a round registers all 64 slots,
// pushes one word per slot per step with each slot's faults in line, and
// detaches every slot, timing each Detach.
type churn struct {
	w     workload
	cfg   fleet.Config // uninstrumented, for the serial replays
	progs [][]program  // [slot][p]
	names []string

	pool    *fleet.Pool
	streams []*fleet.Stream
	gen     int
	words   float64
	lat     []time.Duration
	sums    []churnSummary
	replays map[[2]int]summary
}

type churnSummary struct {
	slot, p int
	sum     summary
}

func newChurn(w workload, progs [][]program) (*churn, error) {
	cfg, err := w.config(nil)
	if err != nil {
		return nil, err
	}
	c := &churn{w: w, cfg: cfg, progs: progs, replays: make(map[[2]int]summary)}
	for slot := 0; slot < tenants; slot++ {
		c.names = append(c.names, fmt.Sprintf("slot-%02d", slot))
	}
	return c, nil
}

// setup runs one warm-up generation: every monitor is built, lane groups
// exist, and the pool has recycled a full fleet of monitors.
func (c *churn) setup(p *fleet.Pool, tr *tracer) error {
	c.pool, c.gen = p, 0
	c.sums = c.sums[:0]
	if err := c.round(tr); err != nil {
		return err
	}
	c.words, c.lat = 0, c.lat[:0]
	return nil
}

func (c *churn) round(tr *tracer) error {
	p := c.gen % distinct
	c.streams = c.streams[:0]
	for _, name := range c.names {
		t0 := tr.begin()
		st, err := c.pool.Register(name)
		tr.end(lRegister, t0, 1)
		if err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
		c.streams = append(c.streams, st)
	}
	for step := 0; step < genWords; step++ {
		for slot, st := range c.streams {
			pr := &c.progs[slot][p]
			for _, op := range pr.ops[pr.steps[step]:pr.steps[step+1]] {
				t0 := tr.begin()
				err := op.Apply(st)
				tr.end(lPush, t0, int64(len(op.Ws))+int64(op.N)/64)
				if err != nil {
					return fmt.Errorf("%s: push: %w", c.names[slot], err)
				}
			}
		}
	}
	for slot, st := range c.streams {
		start := time.Now()
		t0 := tr.begin()
		rep := st.Detach()
		tr.end(lDetach, t0, 1)
		c.lat = append(c.lat, time.Since(start))
		c.sums = append(c.sums, churnSummary{slot: slot, p: p, sum: summarize(&rep)})
		c.words += c.progs[slot][p].words
	}
	c.gen++
	return nil
}

func (c *churn) finish(tr *tracer) error {
	if left := c.pool.Shutdown(); len(left) != 0 {
		return fmt.Errorf("shutdown flushed %d streams that were already detached", len(left))
	}
	c.pool = nil
	clear(c.streams)
	return nil
}

func (c *churn) timedWords() float64        { return c.words }
func (c *churn) latencies() []time.Duration { return c.lat }

// replayInputs cuts each slot's programs into whole sequences; the half
// sequence at the end of a generation and the stormers' 32-bit words are
// left out.
func (c *churn) replayInputs() [][][]uint64 {
	stride := c.cfg.Design.N / 64
	lanes := make([][][]uint64, tenants)
	for slot, progs := range c.progs {
		for _, pr := range progs {
			for i := 0; i+stride <= len(pr.data); i += stride {
				lanes[slot] = append(lanes[slot], pr.data[i:i+stride])
			}
		}
	}
	return lanes
}

// check compares every generation with fleet.ReplaySerial of its op list.
// A slot's generations with the same program have the same op list, so
// each replay runs once and is reused.
func (c *churn) check(_ int, log io.Writer) (attempted, failed int) {
	printed := 0
	for _, cs := range c.sums {
		attempted++
		key := [2]int{cs.slot, cs.p}
		want, ok := c.replays[key]
		if !ok {
			rep, err := fleet.ReplaySerial(c.cfg, c.names[cs.slot], c.progs[cs.slot][cs.p].ops)
			if err != nil {
				mismatch(log, &printed, "%s: replay: %v", c.names[cs.slot], err)
				failed++
				continue
			}
			want = summarize(&rep)
			c.replays[key] = want
		}
		if !cs.sum.identityHolds() || cs.sum != want {
			mismatch(log, &printed, "%s/%s program %d: got %+v, want %+v", c.w.name, c.names[cs.slot], cs.p, cs.sum, want)
			failed++
		}
	}
	c.sums = c.sums[:0]
	return attempted, failed
}
