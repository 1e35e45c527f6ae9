package obs

import (
	"strings"
	"testing"
)

// golden builds the registry every exposition test scrapes.
func golden() *Registry {
	reg := NewRegistry()
	reg.Counter("req_total", "requests served, by code", "code", "200").Add(3)
	reg.Counter("req_total", "requests served, by code", "code", "404").Inc()
	reg.Gauge("temp_celsius", "temperature").Set(36.6)
	h := reg.Histogram("size_bytes", "payload size", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)
	return reg
}

const goldenText = `# HELP req_total requests served, by code
# TYPE req_total counter
req_total{code="200"} 3
req_total{code="404"} 1
# HELP size_bytes payload size
# TYPE size_bytes histogram
size_bytes_bucket{le="1"} 1
size_bytes_bucket{le="2"} 1
size_bytes_bucket{le="4"} 2
size_bytes_bucket{le="+Inf"} 3
size_bytes_sum 104
size_bytes_count 3
# HELP temp_celsius temperature
# TYPE temp_celsius gauge
temp_celsius 36.6
`

func TestWritePrometheusGolden(t *testing.T) {
	reg := golden()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenText {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), goldenText)
	}
	// Two scrapes of identical state must be byte-identical: the format
	// sorts families and members, never ranging over a map.
	var b2 strings.Builder
	if err := reg.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Error("second scrape differs from the first on unchanged state")
	}
}

const goldenJSON = `{"ts_ms":1234,"families":[` +
	`{"name":"req_total","type":"counter","help":"requests served, by code","metrics":[` +
	`{"labels":{"code":"200"},"value":3},{"labels":{"code":"404"},"value":1}]},` +
	`{"name":"size_bytes","type":"histogram","help":"payload size","metrics":[` +
	`{"sum":104,"count":3,"buckets":[{"le":1,"cumulative":1},{"le":2,"cumulative":1},{"le":4,"cumulative":2}]}]},` +
	`{"name":"temp_celsius","type":"gauge","help":"temperature","metrics":[{"value":36.6}]}]}` + "\n"

func TestWriteJSONGolden(t *testing.T) {
	reg := golden()
	var b strings.Builder
	if err := reg.WriteJSON(&b, 1234); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenJSON {
		t.Errorf("JSON exposition mismatch:\ngot:  %swant: %s", b.String(), goldenJSON)
	}
}

func TestHandleIdempotence(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total", "x", "k", "v")
	c2 := reg.Counter("x_total", "x", "k", "v")
	if c1 != c2 {
		t.Error("same (name, labels) returned distinct counter handles")
	}
	if c3 := reg.Counter("x_total", "x", "k", "w"); c3 == c1 {
		t.Error("different labels returned the same handle")
	}
	if got := reg.Families(); got != 1 {
		t.Errorf("Families() = %d, want 1 (two members of one family)", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter family as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestOddLabelsPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("odd label list did not panic")
		}
	}()
	reg.Counter("x_total", "x", "key-without-value")
}

func TestBadBoundsPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("non-ascending histogram bounds did not panic")
		}
	}()
	reg.Histogram("h", "h", []float64{1, 1})
}

// TestNilRegistryIsNoOp exercises the entire nil surface the hot paths
// rely on: a nil registry hands out nil handles and every call is safe.
func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	c := reg.Counter("a_total", "a", "k", "v")
	g := reg.Gauge("b", "b")
	h := reg.Histogram("c", "c", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(-1)
	h.Observe(3)
	reg.Emit("kind", 0, "detail")
	reg.SetTraceCapacity(8)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles reported non-zero state")
	}
	if reg.Families() != 0 || reg.Trace() != nil {
		t.Error("nil registry reported registered state")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry text exposition: err=%v, wrote %q", err, b.String())
	}
	b.Reset()
	if err := reg.WriteJSON(&b, 0); err != nil {
		t.Fatal(err)
	}
	if b.String() != "{\"ts_ms\":0,\"families\":[]}\n" {
		t.Errorf("nil registry JSON exposition = %q", b.String())
	}
}

func TestEmitCountsAndTraces(t *testing.T) {
	reg := NewRegistry()
	reg.Emit("fault.test", 42, "first")
	reg.Emit("fault.test", 43, "second")
	reg.Emit("supervisor.failover", -1, "")
	if got := reg.Counter("obs_trace_events_total", "", "kind", "fault.test").Value(); got != 2 {
		t.Errorf("fault.test event count = %d, want 2", got)
	}
	ev := reg.Trace().Snapshot()
	if len(ev) != 3 || ev[0].Kind != "fault.test" || ev[0].Bit != 42 || ev[2].Seq != 2 {
		t.Errorf("trace snapshot = %+v", ev)
	}
}

func TestGaugeAdd(t *testing.T) {
	g := NewRegistry().Gauge("g", "g")
	g.Set(10)
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Errorf("gauge after Set(10), Add(-2.5) = %v, want 7.5", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := Pow2Buckets(2, 4); len(got) != 3 || got[0] != 4 || got[2] != 16 {
		t.Errorf("Pow2Buckets(2,4) = %v", got)
	}
	if got := Pow2Buckets(4, 2); len(got) != 3 || got[0] != 4 {
		t.Errorf("Pow2Buckets swaps inverted bounds: %v", got)
	}
	if got := ExpBuckets(1, 10, 3); got[0] != 1 || got[1] != 10 || got[2] != 100 {
		t.Errorf("ExpBuckets(1,10,3) = %v", got)
	}
}
