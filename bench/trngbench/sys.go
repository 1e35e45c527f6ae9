package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"

	"repro/internal/obs"
)

// heapLive collects garbage and returns the bytes of heap objects that
// collection found live: the resident state, without the span
// fragmentation HeapInuse adds, which is tens of KiB either way from one
// sample to the next. It collects twice because the first collection only
// moves sync.Pool caches (the fleet's free monitors and trackers) to their
// victim lists, and how full those are depends on timing.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runtimeSample holds the runtime/metrics the per-layer run differences.
type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64 // cpu-seconds
	allocBytes               uint64
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	var alloc uint64
	if s[3].Value.Kind() == metrics.KindUint64 {
		alloc = s[3].Value.Uint64()
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), idleCPU: f(2), allocBytes: alloc}
}

// counters reads the fleet's counters and gauges through the registry's
// JSON exposition, keyed name{label=value,...}. A nil registry has none.
func counters(reg *obs.Registry) (map[string]float64, error) {
	if reg == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, 0); err != nil {
		return nil, fmt.Errorf("read fleet counters: %w", err)
	}
	var exp struct {
		Families []struct {
			Name    string `json:"name"`
			Metrics []struct {
				Labels map[string]string `json:"labels"`
				Value  *float64          `json:"value"`
			} `json:"metrics"`
		} `json:"families"`
	}
	if err := json.Unmarshal(buf.Bytes(), &exp); err != nil {
		return nil, fmt.Errorf("parse fleet counters: %w", err)
	}
	out := make(map[string]float64)
	for _, f := range exp.Families {
		for _, m := range f.Metrics {
			if m.Value == nil {
				continue
			}
			var ls []string
			for k, v := range m.Labels {
				ls = append(ls, k+"="+v)
			}
			sort.Strings(ls)
			out[f.Name+"{"+strings.Join(ls, ",")+"}"] = *m.Value
		}
	}
	return out, nil
}
