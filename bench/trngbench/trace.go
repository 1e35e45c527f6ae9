package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// layer names one traced boundary: a public call the benchmark makes into
// one module of the repository.
type layer uint8

const (
	lRepeat     layer = iota // one workload repeat or replay pass: the parent span
	lPush                    // fleet Stream.Push / PushWords / PushFault
	lRegister                // fleet Pool.Register
	lDetach                  // fleet Stream.Detach
	lAbsorb                  // hwslice Group.AbsorbTiles
	lExtract                 // hwslice Group.ExtractLane, every attached lane in one span
	lSlicedFeed              // core Monitor.FeedWord on a sliced block (residual engines)
	lFeed                    // core Monitor.FeedWord, unsliced, mid-sequence
	lBoundary                // core Monitor.LoadWordStats + final FeedWord
	lEvaluate                // sweval Evaluator.Evaluate on a completed block
	lOnline                  // online Tracker.Push
	numLayers
)

var layerNames = [numLayers]string{
	"repeat", "fleet.push", "fleet.register", "fleet.detach",
	"hwslice.absorb", "hwslice.extract", "core.sliced_feedword", "core.feedword",
	"core.boundary", "sweval.evaluate", "online.push",
}

// maxSpans bounds the spans kept per layer for -trace-out; aggregates
// cover every call regardless.
const maxSpans = 100_000

// span is one timed call: times are nanoseconds since the tracer's epoch,
// work counts the units the call processed (words, tiles, lanes, calls).
type span struct {
	id, parent int64
	start, end int64
	work       int64
	layer      layer
}

// agg aggregates every call of one layer.
type agg struct {
	work, ns int64
	hist     histogram
}

// nsPerWork is the layer's mean cost per unit of work.
func (a *agg) nsPerWork() float64 {
	if a.work == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.work)
}

// tracer records spans around the benchmark's calls into each layer. A nil
// tracer records nothing, so untraced runs pass nil and pay one branch.
type tracer struct {
	epoch  time.Time
	nextID int64
	parent int64
	// scale turns a span's wall time into time at the yardstick's calm
	// speed (refkernel.go), so layer costs timed at different moments add
	// up to the scaled end-to-end figure. Aggregates are scaled, with the
	// traced workload's sens; kept spans keep their wall-clock times.
	scale, sens float64
	spans       [numLayers][]span
	aggs        [numLayers]agg
}

func newTracer(sens float64) *tracer { return &tracer{epoch: time.Now(), scale: 1, sens: sens} }

// rescale sets the scale from a fresh yardstick timing.
func (t *tracer) rescale(k time.Duration) {
	if t == nil {
		return
	}
	t.scale = calmScale(k, k, t.sens)
}

// begin returns the start time of a span.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// end closes a span of layer l opened at start, processing work units.
func (t *tracer) end(l layer, start, work int64) {
	if t == nil {
		return
	}
	t.nextID++
	t.record(span{id: t.nextID, parent: t.parent, start: start, end: t.begin(), work: work, layer: l})
}

// record folds s into its layer's aggregate and keeps it while the
// layer has fewer than maxSpans.
func (t *tracer) record(s span) {
	a := &t.aggs[s.layer]
	d := int64(float64(s.end-s.start) * t.scale)
	a.work += s.work
	a.ns += d
	a.hist.add(d)
	if len(t.spans[s.layer]) < maxSpans {
		t.spans[s.layer] = append(t.spans[s.layer], s)
	}
}

// openRepeat starts a repeat span; every span until closeRepeat is its
// child.
func (t *tracer) openRepeat() int64 {
	if t == nil {
		return 0
	}
	t.nextID++
	t.parent = t.nextID
	return t.begin()
}

// closeRepeat ends the repeat span opened at start.
func (t *tracer) closeRepeat(start int64) {
	if t == nil {
		return
	}
	t.record(span{id: t.parent, start: start, end: t.begin(), layer: lRepeat})
	t.parent = 0
}

// writeJSONL writes the kept spans, one JSON object per line, labelled
// with the workload they belong to.
func (t *tracer) writeJSONL(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type rec struct {
		Workload string `json:"workload"`
		ID       int64  `json:"id"`
		Parent   int64  `json:"parent"`
		Name     string `json:"name"`
		StartNS  int64  `json:"start_ns"`
		EndNS    int64  `json:"end_ns"`
		Work     int64  `json:"work"`
	}
	for l := range t.spans {
		for _, s := range t.spans[l] {
			if err := enc.Encode(rec{workload, s.id, s.parent, layerNames[s.layer], s.start, s.end, s.work}); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// histogram is a log-linear histogram of durations in nanoseconds: exact
// below 32 ns, then 32 buckets per octave (about 3 % wide).
type histogram struct {
	n      int64
	counts [2048]int64
}

func bucketOf(v int64) int {
	if v < 32 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 6 // v>>e lies in [32, 64)
	return 32*e + int(uint64(v)>>uint(e))
}

// bucketMid is the midpoint of bucket i.
func bucketMid(i int) float64 {
	if i < 32 {
		return float64(i)
	}
	e := i/32 - 1
	lo := uint64(i%32+32) << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e)-1)/2
}

func (h *histogram) add(v int64) {
	i := bucketOf(v)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile (nearest rank) at bucket resolution.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.counts) - 1)
}
