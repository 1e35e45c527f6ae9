package main

// metric is one reported number as BENCHMARK.json lists it. The test
// suite checks BENCHMARK.json against these tables, so the two cannot
// drift.
type metric struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEnd are what a fleet operator sees, reported from untraced runs as
// the median of a workload's samples, times scaled to a calm host
// (refkernel.go); -repeat-check holds each to its bound. A time bound is
// at least three times the widest ten-seed spread measured on the
// reference host, capped at 0.25 (README: "Bounds"). setup_s carries the
// widest bound, so work moved into set-up still shows. Report latency was
// demoted to the per-layer metrics (README: "Why report latency is
// per-layer").
var endToEnd = []metric{
	{name: "ns_per_word", unit: "ns", better: "lower", bound: 0.25},
	{name: "heap_live_mib", unit: "MiB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer come from the -trace 1 run: the fleet's own counters and timed
// public calls, single-threaded replays of the workload's words through
// each layer's public API, and the ledger that adds them up.
var perLayer = []metric{
	{name: "fleet.push_ns_per_word", unit: "ns", better: "lower"},
	{name: "fleet.push_call_p50_ns", unit: "ns", better: "lower"},
	{name: "fleet.push_call_p99_us", unit: "us", better: "lower"},
	{name: "fleet.tiles_per_kword", unit: "count", better: "lower"},
	{name: "fleet.lane_occupancy", unit: "ratio", better: "higher"},
	{name: "fleet.adoptions_per_kseq", unit: "count", better: "lower"},
	{name: "fleet.evictions_per_kseq.overflow", unit: "count", better: "lower"},
	{name: "fleet.evictions_per_kseq.fault", unit: "count", better: "lower"},
	{name: "fleet.evictions_per_kseq.detach", unit: "count", better: "lower"},
	{name: "fleet.evictions_per_kseq.health", unit: "count", better: "lower"},
	{name: "fleet.quarantines_per_kseq", unit: "count", better: "lower"},
	{name: "fleet.queue_high_water", unit: "items", better: "lower"},
	{name: "fleet.register_us_p50", unit: "us", better: "lower"},
	{name: "fleet.detach_us_p50", unit: "us", better: "lower"},
	{name: "fleet.report_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "fleet.report_latency_p99_ms", unit: "ms", better: "lower"},
	{name: "hwslice.absorb_ns_per_tile", unit: "ns", better: "lower"},
	{name: "hwslice.extract_ns_per_lane", unit: "ns", better: "lower"},
	{name: "core.sliced_feedword_ns_per_word", unit: "ns", better: "lower"},
	{name: "core.feedword_ns_per_word", unit: "ns", better: "lower"},
	{name: "core.boundary_us_per_seq", unit: "us", better: "lower"},
	{name: "sweval.evaluate_us_per_seq", unit: "us", better: "lower"},
	{name: "online.push_ns_per_word", unit: "ns", better: "lower"},
	{name: "obs.cost_ns_per_word", unit: "ns", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "runtime.alloc_bytes_per_word", unit: "B", better: "lower"},
	{name: "ledger.e2e_ns_per_word", unit: "ns", better: "lower"},
	{name: "ledger.accounted_ns_per_word", unit: "ns", better: "lower"},
	{name: "ledger.fleet_self_ns_per_word", unit: "ns", better: "lower"},
	{name: "trace.overhead_ns_per_word", unit: "ns", better: "lower"},
}
