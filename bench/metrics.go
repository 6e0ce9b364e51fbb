package main

// metricDef is one metric the benchmark reports. The two tables below are
// the source of truth for BENCHMARK.json, which the tests hold to them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a value that repeats exactly for a seed (simulated
	// quantities and allocation counts): compare compares it for equality
	// rather than by spread.
	exact bool
}

// endToEnd are the metrics a user of the simulator waits on, all in host
// time or host memory, reported by every workload with tracing off. Host
// times are scaled to the reference machine (calibrate.go); the raw wall
// times and the p90s are printed beside them but not bounded, because the
// machine's drift spreads them further than any useful bound.
var endToEnd = []metricDef{
	{name: "ref_ms_per_simsec", unit: "ms/simsec", better: "lower", bound: 0.25},
	{name: "allocs_per_simsec", unit: "1/simsec", better: "lower", bound: 0.01, exact: true},
	{name: "alloc_mb_per_simsec", unit: "MB/simsec", better: "lower", bound: 0.02, exact: true},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the traced run's metrics: each layer's share of simulator
// CPU samples, cumulative function groups, and the layer's work counted
// from public counters per simulated second. A layer a workload does not
// run reports 0.
var perLayer = []metricDef{
	pct("simtime.self_pct"), pct("simtime.heap_pct"),
	exact("simtime.events_per_simsec", "1/simsec"),
	{name: "simtime.ns_per_event", unit: "ns", better: "lower"}, // scaled like ref_ms_per_simsec

	pct("hv.self_pct"),
	exact("hv.dispatch_per_simsec", "1/simsec"), exact("hv.yield_per_simsec", "1/simsec"),
	exact("hv.preempt_per_simsec", "1/simsec"), exact("hv.steal_per_simsec", "1/simsec"),
	exact("hv.vipi_per_simsec", "1/simsec"), exact("hv.virq_per_simsec", "1/simsec"),
	exact("hv.migrate_micro_per_simsec", "1/simsec"),
	exact("hv.vipi_retried_per_simsec", "1/simsec"), exact("hv.vipi_dropped_per_simsec", "1/simsec"),
	exact("hv.vipi_lost_per_simsec", "1/simsec"),

	pct("trace.self_pct"), pct("trace.emit_pct"),
	exact("trace.records_per_simsec", "1/simsec"),

	pct("core.self_pct"), pct("ksym.self_pct"), pct("core.classify_pct"),
	exact("core.trigger_per_simsec", "1/simsec"), exact("core.migrate_ok_ratio", "ratio"),
	exact("core.micro_avg", "cores"), exact("core.decisions_per_simsec", "1/simsec"),

	pct("guest.self_pct"), pct("workload.self_pct"), pct("rng.self_pct"),
	{name: "guest.units_per_simsec", unit: "1/simsec", better: "higher", exact: true},
	exact("guest.tlb_sync_mean_us", "us"),
	exact("guest.lock_wait_mean_us", "us"),

	pct("vnet.self_pct"), pct("vdisk.self_pct"), pct("rivals.self_pct"),
	exact("vnet.offered_per_simsec", "1/simsec"), exact("vnet.drop_pct", "%"),
	exact("vnet.late_pct", "%"),
	// The serving grid's modelled (simulated-time) outcome. It is a
	// property of the model, not of host speed, and must stay bit-identical
	// across a performance change like every simulated quantity.
	{name: "goodput_rps", unit: "req/s", better: "higher", exact: true},
	exact("slo_violation_pct", "%"), exact("req_p99_ms", "ms"),

	pct("obs.self_pct"), pct("metrics.self_pct"),
	exact("obs.spans_per_simsec", "1/simsec"), exact("obs.wake_dispatch_p99_us", "us"),
	exact("obs.ipi_deliver_p99_us", "us"), exact("obs.lock_acquire_p99_us", "us"),

	pct("fault.self_pct"), pct("recovery.self_pct"),
	exact("recovery.repairs_per_run", "1/run"), exact("recovery.mttr_ms_p50", "ms"),
	exact("fault.lost_ipis_end", "1/run"),

	pct("experiment.self_pct"),
	{name: "experiment.setup_ms", unit: "ms", better: "lower"},

	pct("runtime.self_pct"), pct("runtime.gc_pct"), pct("runtime.malloc_pct"), pct("runtime.map_pct"),
	exact("runtime.allocs_per_event", "1/event"),
	{name: "runtime.gc_cycles_per_simsec", unit: "1/simsec", better: "lower"},
	{name: "runtime.gc_pause_us_per_simsec", unit: "us/simsec", better: "lower"},

	{name: "trace_overhead_pct", unit: "%", better: "lower"},
	{name: "profile_samples", unit: "count", better: "higher"},
}

func pct(name string) metricDef { return metricDef{name: name, unit: "%", better: "lower"} }

func exact(name, unit string) metricDef {
	return metricDef{name: name, unit: unit, better: "lower", exact: true}
}

// metricByName finds a metric in either table.
func metricByName(name string) (metricDef, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
