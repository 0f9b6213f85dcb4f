package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (checked by
// TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced (--trace 0) metrics: what a user of the
// simulator sees for one workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_cycles_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced (--trace 1) metrics, one layer each. README.md
// says which end-to-end metric and workload each one should move.
var perLayer = []metricDef{
	{"core.run_ns_per_cycle", "ns", "lower"},
	{"core.ff_saved_frac", "frac", "higher"},
	{"core.stage.commit_ns_per_cycle", "ns", "lower"},
	{"core.stage.memory_ns_per_cycle", "ns", "lower"},
	{"core.stage.writeback_ns_per_cycle", "ns", "lower"},
	{"core.stage.issue_ns_per_cycle", "ns", "lower"},
	{"core.stage.dispatch_ns_per_cycle", "ns", "lower"},
	{"core.stage.fetch_ns_per_cycle", "ns", "lower"},
	{"core.stage.other_ns_per_cycle", "ns", "lower"},
	{"core.stage.stopwatch_overhead_frac", "frac", "lower"},
	{"core.new_us", "us", "lower"},
	{"core.sim_cycles", "count", "lower"},
	{"core.committed", "count", "lower"},
	{"kernels.source_us", "us", "lower"},
	{"asm.assemble_us", "us", "lower"},
	{"kernels.check_us", "us", "lower"},
	{"cell.fixed_frac", "frac", "lower"},
	{"cache.readmany_ns_per_probe", "ns", "lower"},
	{"cache.readmany_hier_ns_per_probe", "ns", "lower"},
	{"bpred.lookupblock_ns.2bit", "ns", "lower"},
	{"bpred.lookupblock_ns.gshare", "ns", "lower"},
	{"bpred.lookupblock_ns.gshare-pt", "ns", "lower"},
	{"bpred.lookupblock_ns.tage", "ns", "lower"},
	{"runner.declare_ms", "ms", "lower"},
	{"runner.assemble_ms", "ms", "lower"},
	{"runner.cell_p50_ms", "ms", "lower"},
	{"runner.cell_ptail_ms", "ms", "lower"},
	{"runner.cell_ptail_pct", "%", "higher"},
	{"runner.cell_samples", "count", "higher"},
	{"runner.parallel_eff", "frac", "higher"},
	{"runner.cells", "count", "lower"},
	{"runner.cells_simulated", "count", "lower"},
	{"runner.cells_from_store", "count", "higher"},
	{"store.put_us", "us", "lower"},
	{"store.trylock_us", "us", "lower"},
	{"store.get_miss_us", "us", "lower"},
	{"store.get_hit_us", "us", "lower"},
	{"store.cell_bytes", "bytes", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.commits", "count", "lower"},
	{"store.put_failures", "count", "lower"},
	{"store.hit_frac", "frac", "higher"},
	{"runtime.alloc_bytes_per_cell", "bytes", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.leftover_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"failed_frac", "frac", "lower"},
}
