package main

// metricSpec names one reported metric and its unit. The lists below
// must match BENCHMARK.json; every run reports every entry of its list.
type metricSpec struct {
	name, unit string
}

// endToEnd are the untraced run's metrics (--trace 0). Host figures
// are medians over the run's timed simulations; success_frac is exact
// for the run's seed.
var endToEnd = []metricSpec{
	{"sims_per_s", "1/s"},
	{"migrations_per_s", "1/s"},
	{"alloc_mb_per_sim", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"success_frac", "ratio"},
}

// perLayer are the traced run's metrics (--trace 1). Counts, bytes and
// busy times are per simulation; a layer a workload does not exercise
// reads 0.
var perLayer = func() []metricSpec {
	s := []metricSpec{
		{"simtime.events", "count"},
		{"simtime.cancel_ratio", "ratio"},
		{"simtime.pending_max", "count"},
		{"simtime.events_per_s", "1/s"},
		{"netsim.rx_packets", "count"},
		{"netsim.tx_bytes", "bytes"},
		{"netsim.fault_dropped", "count"},
		{"netstack.useful_frac", "ratio"},
		{"netstack.retransmits", "count"},
		{"netstack.hook_drops", "count"},
		{"capture.captured", "count"},
		{"capture.reinjected", "count"},
		{"sockmig.freeze_bytes", "bytes"},
		{"sockmig.precopy_bytes", "bytes"},
		{"sockmig.tcp_migrated", "count"},
		{"ckpt.rounds", "count"},
		{"ckpt.mem_page_bytes", "bytes"},
		{"ckpt.freeze_mem_bytes", "bytes"},
		{"migration.wall_per_sim", "ratio"},
		{"migration.retries", "count"},
		{"ctlplane.dispatches", "count"},
		{"ctlplane.resends", "count"},
		{"ctlplane.takeovers", "count"},
		{"ctlplane.useful_frac", "ratio"},
		{"lb.decisions", "count"},
		{"harness.worker_occupancy", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"runtime.alloc_mb", "MB"},
		{"trace.overhead_frac", "ratio"},
		{"trace.attributed_frac", "ratio"},
		{"trace.unmapped_events", "count"},
		{"probe.sockmig.ns_per_sock", "ns"},
		{"probe.ckpt.encode_mb_s", "MB/s"},
		{"probe.ckpt.decode_mb_s", "MB/s"},
		{"probe.migration.pipe_mb_s", "MB/s"},
		{"probe.netsim.fanout3_ns", "ns"},
		{"probe.netsim.fanout5_ns", "ns"},
		{"freeze_ms", "ms"},
		{"freeze_sock_kb", "kB"},
		{"client_delay_ms", "ms"},
		{"downtime_p50_ms", "ms"},
		{"downtime_p99_ms", "ms"},
		{"abort_rate", "ratio"},
		{"cpu_spread_pct", "%"},
		{"update_floor_hz", "Hz"},
	}
	for _, l := range busyLayers {
		s = append(s, metricSpec{l + ".events", "count"}, metricSpec{l + ".busy_s", "s"}, metricSpec{l + ".busy_frac", "ratio"})
	}
	for _, ph := range skewPhases {
		s = append(s, metricSpec{"migration.phase." + ph + ".wall_ms", "ms"})
	}
	return s
}()
