package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hwblock"
	"repro/internal/hwfast"
	"repro/internal/hwslice"
	"repro/internal/online"
	"repro/internal/sweval"
)

// Share of -seconds each part of a traced workload gets: one warm-up
// repeat, obsPairs pairs of untraced repeats with and without the
// registry, tracedRepeats repeats with the fleet calls timed (each of
// these repeatShare), then the single-threaded layer replay.
const (
	obsPairs      = 2
	tracedRepeats = 2
	repeatShare   = 0.1
	replayShare   = 0.3
)

// runTrace measures every per-layer metric of each selected workload and
// prints the ledger. The ledger's end-to-end figure comes from the
// untraced repeats of the same run.
func runTrace(o options, states []*state) int {
	var spans io.Writer
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fmt.Fprintln(o.stderr, "trngbench:", err)
			return 2
		}
		defer f.Close() // closed and checked below on the success path
		spans = f
	}
	values := make(map[string]value)
	var rows []ledgerRow
	var res []*e2eResult
	for _, st := range states {
		tr := newTracer(st.w.sens)
		r, lm, row, err := traceWorkload(o, st, tr)
		if err != nil {
			fmt.Fprintf(o.stderr, "trngbench: %s: %v\n", st.w.name, err)
			return 2
		}
		res = append(res, r)
		rows = append(rows, row)
		fmt.Fprintf(o.stdout, "%s per-layer:\n", st.w.name)
		for _, m := range perLayer {
			fmt.Fprintf(o.stdout, "  %-36s %14.6g  %s\n", m.name, lm[m.name], m.unit)
			values[key(len(states), st.w.name, m.name)] = value{lm[m.name], m.unit}
		}
		if spans != nil {
			if err := tr.writeJSONL(spans, st.w.name); err != nil {
				fmt.Fprintln(o.stderr, "trngbench:", err)
				return 2
			}
		}
	}
	if f, ok := spans.(*os.File); ok {
		if err := f.Close(); err != nil {
			fmt.Fprintln(o.stderr, "trngbench: close -trace-out:", err)
			return 2
		}
	}
	printLedger(o.stdout, rows)
	return finish(o.stdout, res, values)
}

// traceWorkload runs one workload's traced plan and derives its per-layer
// metrics and ledger row.
func traceWorkload(o options, st *state, tr *tracer) (*e2eResult, map[string]float64, ledgerRow, error) {
	r := &e2eResult{workload: st.w.name}
	box := time.Duration(o.seconds * repeatShare * float64(time.Second))
	var withObs, noObs, traced []repeatResult
	type plannedRun struct {
		obs bool
		tr  *tracer
		out *[]repeatResult // nil discards the warm-up
	}
	runs := []plannedRun{{true, nil, nil}}
	for i := 0; i < obsPairs; i++ {
		runs = append(runs, plannedRun{true, nil, &withObs}, plannedRun{false, nil, &noObs})
	}
	for i := 0; i < tracedRepeats; i++ {
		runs = append(runs, plannedRun{true, tr, &traced})
	}
	for i, run := range runs {
		rr, err := repeat(st, run.obs, run.tr, box)
		if err != nil {
			return nil, nil, ledgerRow{}, err
		}
		a, f := st.tf.check(i, o.stderr)
		r.attempted += a
		r.failed += f
		if run.out != nil {
			*run.out = append(*run.out, rr)
		}
	}
	design, err := st.w.design()
	if err != nil {
		return nil, nil, ledgerRow{}, err
	}
	c := fleetCounts(withObs)
	// The engine's cost per tile grows with its attached lanes, so the
	// replay attaches as many as the fleet's groups held on average.
	lanes := tenants
	if c.tiles > 0 {
		lanes = max(1, min(tenants, int(c.words/c.tiles+0.5)))
	}
	if err := replay(design, st.tf.replayInputs(), lanes, tr, time.Duration(o.seconds*replayShare*float64(time.Second))); err != nil {
		return nil, nil, ledgerRow{}, fmt.Errorf("replay: %w", err)
	}
	fast, err := hwfast.New(design.N, design.Tests, design.Params)
	if err != nil {
		return nil, nil, ledgerRow{}, err
	}
	lm, row := layerMetrics(st.w, fast.Residual(), c, withObs, noObs, traced, tr)
	return r, lm, row, nil
}

// replay runs the workload's exact words through each layer's public API
// on one goroutine, one sequence per lane at a time, until box has passed.
// A lane group with `attached` lanes absorbs every tile but the last, the
// attached lanes' sliced monitors run the residual engines on the original
// words, and ExtractLane, LoadWordStats and the final FeedWord hand each
// back at the boundary. All 64 lanes also run through unsliced monitors,
// online trackers and a bare evaluator for the serial, online and
// evaluation costs. lanes[l][q] is lane l's q-th sequence.
func replay(design hwblock.Config, lanes [][][]uint64, attached int, tr *tracer, box time.Duration) error {
	cv, err := sweval.NewCriticalValues(design, alpha)
	if err != nil {
		return err
	}
	eng, err := hwslice.New(design.N, design.Tests, design.Params)
	if err != nil {
		return err
	}
	sliced := make([]*core.Monitor, attached)
	for l := range sliced {
		if err := eng.Attach(l); err != nil {
			return err
		}
		if sliced[l], err = core.NewMonitorWithValues(design, cv); err != nil {
			return err
		}
		if err := sliced[l].Block().SetSliced(true); err != nil {
			return err
		}
	}
	var plain [tenants]*core.Monitor
	var trackers [tenants]*online.Tracker
	for l := range plain {
		if plain[l], err = core.NewMonitorWithValues(design, cv); err != nil {
			return err
		}
		if trackers[l], err = online.New(design, online.Config{}); err != nil {
			return err
		}
	}
	blk, err := hwblock.New(design)
	if err != nil {
		return err
	}
	ev := sweval.NewEvaluator(cv)
	ws := make([]hwfast.WordStats, attached)
	words := design.N / 64
	tiles := make([][64]uint64, words)

	span := tr.openRepeat()
	defer tr.closeRepeat(span)
	start := time.Now()
	var timed time.Time // when the yardstick last ran
	for it := 0; it == 0 || time.Since(start) < box; it++ {
		if time.Since(timed) >= segMin {
			tr.rescale(refKernel())
			timed = time.Now()
		}
		q := it % len(lanes[0])
		// Columns of unattached lanes stay zero, as in the fleet's
		// partially populated groups; the engine processes all 64 either
		// way, and its cost depends on the data.
		for j := range tiles {
			for l := 0; l < attached; l++ {
				tiles[j][l] = lanes[l][q][j]
			}
		}
		for j := 0; j < words-1; j += 16 {
			k := min(16, words-1-j)
			t0 := tr.begin()
			err := eng.AbsorbTiles(tiles[j : j+k])
			tr.end(lAbsorb, t0, int64(k))
			if err != nil {
				return err
			}
		}
		t0 := tr.begin()
		for l, m := range sliced {
			for _, w := range lanes[l][q][:words-1] {
				if _, err := m.FeedWord(w, 64); err != nil {
					return err
				}
			}
		}
		tr.end(lSlicedFeed, t0, int64(attached*(words-1)))
		t0 = tr.begin()
		for l := range ws {
			eng.ExtractLane(l, &ws[l])
		}
		tr.end(lExtract, t0, int64(attached))
		for l, m := range sliced {
			t0 := tr.begin()
			err := m.LoadWordStats(&ws[l])
			var rep *core.SequenceReport
			if err == nil {
				rep, err = m.FeedWord(lanes[l][q][words-1], 64)
			}
			tr.end(lBoundary, t0, 1)
			if err == nil && rep == nil {
				err = fmt.Errorf("lane %d: no verdict at the sequence boundary", l)
			}
			if err == nil {
				err = m.Block().SetSliced(true)
			}
			if err != nil {
				return err
			}
		}
		eng.Rollover()

		t0 = tr.begin()
		for l, m := range plain {
			for _, w := range lanes[l][q][:words-1] {
				if _, err := m.FeedWord(w, 64); err != nil {
					return err
				}
			}
		}
		tr.end(lFeed, t0, int64(tenants*(words-1)))
		for l, m := range plain {
			if _, err := m.FeedWord(lanes[l][q][words-1], 64); err != nil {
				return err
			}
		}

		t0 = tr.begin()
		for l, t := range trackers {
			for _, w := range lanes[l][q] {
				t.Push(w, 64)
			}
		}
		tr.end(lOnline, t0, int64(tenants*words))

		for l := range lanes {
			blk.Reset()
			for _, w := range lanes[l][q] {
				if err := blk.ClockWord(w, 64); err != nil {
					return err
				}
			}
			t0 := tr.begin()
			_, err := ev.Evaluate(blk)
			tr.end(lEvaluate, t0, 1)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// counts are the fleet's counter deltas over the timed part of the
// untraced repeats, with the words pushed meanwhile.
type counts struct {
	words, tiles, seqs float64
	delta              func(name string) float64
}

func fleetCounts(rs []repeatResult) counts {
	c := counts{delta: func(name string) float64 {
		d := 0.0
		for _, r := range rs {
			d += r.after[name] - r.before[name]
		}
		return d
	}}
	for _, r := range rs {
		c.words += r.words
	}
	c.tiles = c.delta("fleet_sliced_tiles_total{}")
	c.seqs = c.delta("fleet_sequences_total{result=pass}") + c.delta("fleet_sequences_total{result=fail}")
	return c
}

// ledgerRow splits one workload's end-to-end ns/word by layer: each term
// is a layer's replayed cost times its calls per word, taken from the
// fleet's own counters, and what is left is the fleet's own time: the
// producer's side of Push, the queue, fifo and staging, and the goroutine
// switches between producer and shard on the one P. Push is not a term of
// its own: at one P its span also covers the shard work it waits behind.
type ledgerRow struct {
	workload                                 string
	e2e                                      float64
	absorb, slicedFeed, extract, boundary    float64
	feed, evaluate, online, accounted, fleet float64
	occupancy                                float64
}

func median(rs []repeatResult, f func(repeatResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return spreadOf(xs).Median
}

// calmNsPerWord is ns_per_word over rs: the median of their scaled
// segments. Differences of it are steadier than differences of wall time.
func calmNsPerWord(rs []repeatResult) float64 {
	var segs []float64
	for _, r := range rs {
		segs = append(segs, r.segs...)
	}
	return spreadOf(segs).Median
}

// layerMetrics derives every per-layer metric and the ledger row. residual
// says whether the design keeps engines running on sliced lanes (hwfast's
// own decision), which is when the residual feed is a ledger term.
func layerMetrics(w workload, residual bool, c counts, withObs, noObs, traced []repeatResult, tr *tracer) (map[string]float64, ledgerRow) {
	m := make(map[string]float64)
	perKSeq := func(name string) float64 {
		if c.seqs == 0 {
			return 0
		}
		return 1000 * c.delta(name) / c.seqs
	}
	push := &tr.aggs[lPush]
	m["fleet.push_ns_per_word"] = push.nsPerWork()
	m["fleet.push_call_p50_ns"] = push.hist.quantile(0.50)
	m["fleet.push_call_p99_us"] = push.hist.quantile(0.99) / 1e3
	m["fleet.tiles_per_kword"] = 1000 * c.tiles / c.words
	if c.tiles > 0 {
		m["fleet.lane_occupancy"] = c.words / (64 * c.tiles)
	}
	m["fleet.adoptions_per_kseq"] = perKSeq("fleet_sliced_adoptions_total{}")
	for _, reason := range []string{"overflow", "fault", "detach", "health"} {
		m["fleet.evictions_per_kseq."+reason] = perKSeq("fleet_sliced_evictions_total{reason=" + reason + "}")
	}
	m["fleet.quarantines_per_kseq"] = perKSeq("fleet_quarantines_total{}")
	m["fleet.queue_high_water"] = median(withObs, func(r repeatResult) float64 { return r.after["fleet_shard_queue_high_water{shard=0}"] })
	m["fleet.register_us_p50"] = tr.aggs[lRegister].hist.quantile(0.50) / 1e3
	m["fleet.detach_us_p50"] = tr.aggs[lDetach].hist.quantile(0.50) / 1e3
	// Report latency pools every timed Detach → report wait of the
	// untraced repeats.
	var lat []time.Duration
	for _, r := range withObs {
		lat = append(lat, r.lat...)
	}
	m["fleet.report_latency_p50_ms"] = float64(percentile(lat, 0.50)) / 1e6
	m["fleet.report_latency_p99_ms"] = float64(percentile(lat, 0.99)) / 1e6

	m["hwslice.absorb_ns_per_tile"] = tr.aggs[lAbsorb].nsPerWork()
	m["hwslice.extract_ns_per_lane"] = tr.aggs[lExtract].nsPerWork()
	m["core.sliced_feedword_ns_per_word"] = tr.aggs[lSlicedFeed].nsPerWork()
	m["core.feedword_ns_per_word"] = tr.aggs[lFeed].nsPerWork()
	m["core.boundary_us_per_seq"] = tr.aggs[lBoundary].nsPerWork() / 1e3
	m["sweval.evaluate_us_per_seq"] = tr.aggs[lEvaluate].nsPerWork() / 1e3
	m["online.push_ns_per_word"] = tr.aggs[lOnline].nsPerWork()

	e2e := calmNsPerWord(withObs)
	m["obs.cost_ns_per_word"] = e2e - calmNsPerWord(noObs)
	var gc, used float64
	var alloc uint64
	for _, r := range withObs {
		gc += r.rtAfter.gcCPU - r.rtBefore.gcCPU
		used += (r.rtAfter.totalCPU - r.rtAfter.idleCPU) - (r.rtBefore.totalCPU - r.rtBefore.idleCPU)
		alloc += r.rtAfter.allocBytes - r.rtBefore.allocBytes
	}
	if used > 0 {
		m["runtime.gc_cpu_frac"] = gc / used
	}
	m["runtime.alloc_bytes_per_word"] = float64(alloc) / c.words
	m["trace.overhead_ns_per_word"] = calmNsPerWord(traced) - e2e

	// The counters do not say which words took the sliced path. A tile
	// carries at most 64 lane-words, so 64·tiles/words bounds the sliced
	// share: exact for full groups, 0 when no tile was absorbed.
	sliced := 0.0
	if w.ingest == "sliced" {
		sliced = min(1, 64*c.tiles/c.words)
	}
	seqPerWord := c.seqs / c.words
	row := ledgerRow{workload: w.name, e2e: e2e, occupancy: m["fleet.lane_occupancy"]}
	row.absorb = c.tiles / c.words * m["hwslice.absorb_ns_per_tile"]
	if residual {
		row.slicedFeed = sliced * m["core.sliced_feedword_ns_per_word"]
	}
	row.extract = sliced * seqPerWord * m["hwslice.extract_ns_per_lane"]
	row.boundary = sliced * seqPerWord * 1e3 * m["core.boundary_us_per_seq"]
	row.feed = (1 - sliced) * m["core.feedword_ns_per_word"]
	row.evaluate = (1 - sliced) * seqPerWord * 1e3 * m["sweval.evaluate_us_per_seq"]
	if w.online {
		row.online = m["online.push_ns_per_word"]
	}
	row.accounted = row.absorb + row.slicedFeed + row.extract + row.boundary + row.feed + row.evaluate + row.online
	row.fleet = e2e - row.accounted
	m["ledger.e2e_ns_per_word"] = e2e
	m["ledger.accounted_ns_per_word"] = row.accounted
	m["ledger.fleet_self_ns_per_word"] = row.fleet
	return m, row
}

// printLedger prints the ledger as a Markdown table, plus the online
// tracker's share of the gap between sliced-light-online and sliced-light
// when both ran.
func printLedger(w io.Writer, rows []ledgerRow) {
	fmt.Fprintln(w, "\nLedger (ns per 64-bit word; each layer term = replayed cost × calls per word from the fleet's counters):")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | ns/word | hwslice absorb | residual feed | extract | boundary | serial feed | evaluate | online | accounted | fleet self | lane occupancy |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
	byName := make(map[string]ledgerRow)
	for _, r := range rows {
		byName[r.workload] = r
		var b strings.Builder
		fmt.Fprintf(&b, "| %s |", r.workload)
		for _, c := range []float64{r.e2e, r.absorb, r.slicedFeed, r.extract, r.boundary, r.feed, r.evaluate, r.online, r.accounted, r.fleet} {
			fmt.Fprintf(&b, " %.1f |", c)
		}
		fmt.Fprintf(&b, " %.3f |", r.occupancy)
		fmt.Fprintln(w, b.String())
	}
	on, okOn := byName["sliced-light-online"]
	off, okOff := byName["sliced-light"]
	if okOn && okOff {
		gap := on.e2e - off.e2e
		fmt.Fprintf(w, "\nOnline gap: sliced-light-online − sliced-light = %.1f ns/word; online.push accounts for %.1f ns/word (%.0f %% of the gap).\n",
			gap, on.online, 100*on.online/gap)
	}
}
