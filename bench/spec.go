package main

// The benchmark's catalogue: every workload and metric it can emit, by
// name. BENCHMARK.json at the repository root carries the same names
// (bench_test.go holds the two in step); a run with tracing off prints
// exactly the endToEnd set, a traced run exactly the perLayer set.

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"fig6_small_cold", "80-cell cold Fig-6 panel on the cache-resident 4x4x4: build, route decision, arbitration, stats and harness scheduling do the work; shard and the memory system do none"},
	{"paper_point_serial", "one 8x8x8 t=8 DimWAR/UR point at load 0.6, serial: working set far beyond cache, so the sim calendar and network slabs dominate and harness, build and stats are noise"},
	{"paper_point_sharded", "the identical point on 2 shards: the only workload where shard partition/steal/merge work; its CSV row must equal the serial one, and a multi-core gain shows only here"},
	{"served_mix", "closed-loop client against an in-process hxserved: cold, overlapping, forked, restarted and warm requests, where keying, flight, checkpoint I/O, snapshot/restore, CSV and HTTP dominate"},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool    // a count of simulated work: two runs of one seed must agree to the unit
}

// endToEnd is what a user of the repository sees, tracing off. The driver
// contract requires every one of them on every workload and never zero,
// which is why the served request latencies and failed_frac of ISSUE 11
// live in perLayer instead (see README.md, "Departures from the issue").
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// exact is a count fixed by the seed alone; "lower" because less simulated
// work for the same CSV is the direction an optimisation would move it.
func exact(name string) metricSpec {
	return metricSpec{Name: name, Unit: "count", Better: "lower", Exact: true}
}

// perLayer is the traced run's output. "Better" is the direction an
// optimisation of that layer would move the number.
var perLayer = []metricSpec{
	// Whole-workload health and the served request kinds.
	lower("failed_frac", "ratio"),
	lower("cold_request_s", "s"),
	lower("overlap_request_s", "s"),
	lower("fork_request_s", "s"),
	lower("restart_request_ms_p50", "ms"),
	lower("warm_request_ms_p50", "ms"),

	lower("sim.kernel_ns_per_event", "ns"),
	exact("sim.events"),
	exact("sim.cycles"),
	lower("sim.events_per_cycle", "ratio"),
	lower("sim.est_busy_s", "s"),

	exact("core.route_calls"),
	lower("core.route_busy_s", "s"),
	lower("core.route_ns_per_call", "ns"),
	lower("core.cands_per_call", "ratio"),
	exact("routing.route_calls"),
	lower("routing.route_busy_s", "s"),
	lower("routing.route_ns_per_call", "ns"),
	lower("routing.cands_per_call", "ratio"),
	higher("route.minimal_hop_frac", "ratio"),

	lower("network.run_self_s", "s"),
	lower("network.pipeline_est_s", "s"),
	lower("network.ns_per_event", "ns"),
	exact("network.delivered_pkts"),
	exact("network.dropped_pkts"),
	exact("network.inflight_at_end"),
	lower("network.hops_per_pkt", "ratio"),
	lower("network.build_s", "s"),
	lower("network.build_alloc_mb", "MiB"),

	lower("topology.build_ms", "ms"),

	exact("traffic.dest_calls"),
	lower("traffic.dest_busy_s", "s"),
	exact("traffic.births"),
	exact("traffic.src_queue_at_end"),

	exact("stats.on_deliver_calls"),
	lower("stats.on_deliver_busy_s", "s"),
	lower("stats.summarize_s", "s"),
	exact("stats.samples"),

	exact("shard.windows"),
	higher("shard.batch_events_per_window", "ratio"),
	lower("shard.partition_busy_s", "s"),
	lower("shard.run_shard_busy_s", "s"),
	lower("shard.run_shard_critical_s", "s"),
	lower("shard.merge_busy_s", "s"),
	lower("shard.coord_other_s", "s"),
	lower("shard.imbalance", "ratio"),
	lower("shard.serial_fallback_windows", "count"),

	lower("hyperx.snapshot_s", "s"),
	lower("hyperx.restore_s", "s"),
	exact("hyperx.snapshot_pkts"),

	lower("checkpoint.save_ms_p50", "ms"),
	lower("checkpoint.load_ms_p50", "ms"),
	higher("checkpoint.hits", "count"),
	lower("checkpoint.misses", "count"),
	lower("checkpoint.bytes", "count"),

	lower("harness.jobs", "count"),
	lower("harness.completed", "count"),
	lower("harness.cancelled", "count"),
	higher("harness.useful_job_frac", "ratio"),
	lower("harness.job_wall_sum_s", "s"),
	higher("harness.pool_efficiency", "ratio"),
	lower("harness.flight_computes", "count"),
	higher("harness.flight_shared", "count"),

	lower("serve.submit_ms_p50", "ms"),
	lower("serve.result_csv_ms_p50", "ms"),
	lower("serve.warm_request_ms_p95", "ms"),
	lower("serve.restart_request_ms_p90", "ms"),
	lower("serve.refused", "count"),
	higher("serve.cells_cached", "count"),
	lower("serve.cells_computed", "count"),

	lower("csv.write_ms", "ms"),
	exact("csv.bytes"),

	lower("go_runtime.alloc_mb", "MiB"),
	lower("go_runtime.num_gc", "count"),
	lower("go_runtime.gc_pause_ms", "ms"),

	lower("profile.sim_share", "ratio"),
	lower("profile.network_share", "ratio"),
	lower("profile.core_share", "ratio"),
	lower("profile.routing_share", "ratio"),
	lower("profile.route_share", "ratio"),
	lower("profile.traffic_share", "ratio"),
	lower("profile.stats_share", "ratio"),
	lower("profile.shard_share", "ratio"),
	lower("profile.topology_share", "ratio"),
	lower("profile.rng_share", "ratio"),
	lower("profile.go_runtime_share", "ratio"),
	lower("profile.other_share", "ratio"),

	lower("trace.timer_ns", "ns"),
	lower("trace.overhead_frac", "ratio"),
	lower("trace.spans", "count"),
}

// specsFor is the metric set a run of the given mode emits.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func workloadNamed(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
