package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same metrics, in the same order.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported with --trace 0.
var endToEndMetrics = []metricDef{
	{"runs_per_s", "1/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_p90", "ms"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerMetrics are reported with --trace 1, on every workload; a layer
// a workload bypasses reads 0 there (README.md says which workload
// exercises which layer).
var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"core.setup_ms", "ms"},
		{"core.parallel_ms", "ms"},
		{"core.teardown_ms", "ms"},
		{"core.access_hit_ns", "ns"},
		{"core.checkpoint_capture_ms", "ms"},
		{"core.checkpoint_restore_ms", "ms"},
		{"apps.setup_ms", "ms"},
		{"apps.verify_ms", "ms"},
		{"sim.events", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.compute_ns", "ns"},
	}
	for _, p := range allProtocols {
		m = append(m,
			metricDef{"proto." + p + ".read_fault_us", "us"},
			metricDef{"proto." + p + ".write_fault_us", "us"},
			metricDef{"proto." + p + ".read_faults", "count"},
			metricDef{"proto." + p + ".write_faults", "count"},
			metricDef{"proto." + p + ".invalidations", "count"},
			metricDef{"proto." + p + ".diffs", "count"},
		)
	}
	for _, p := range allProtocols {
		m = append(m,
			metricDef{"synch." + p + ".lock_us", "us"},
			metricDef{"synch." + p + ".unlock_us", "us"},
			metricDef{"synch." + p + ".barrier_us", "us"},
			metricDef{"synch." + p + ".lock_acquires", "count"},
			metricDef{"synch." + p + ".barrier_entries", "count"},
		)
	}
	return append(m,
		metricDef{"network.msgs", "count"},
		metricDef{"network.bytes", "B"},
		metricDef{"network.retransmits", "count"},
		metricDef{"network.timeouts", "count"},
		metricDef{"network.wire_drops", "count"},
		metricDef{"network.duplicates", "count"},
		metricDef{"network.useful_frac", "frac"},
		metricDef{"network.arq_read_fault_us", "us"},
		metricDef{"sweep.point_ms_p50", "ms"},
		metricDef{"sweep.point_ms_p90", "ms"},
		metricDef{"sweep.busy_frac", "frac"},
		metricDef{"fork.prefixes", "count"},
		metricDef{"fork.forked_runs", "count"},
		metricDef{"fork.saved_s", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.mallocs", "count"},
		metricDef{"trace.span_overhead_frac", "frac"},
		metricDef{"trace.dispatch_overhead_frac", "frac"},
	)
}()
