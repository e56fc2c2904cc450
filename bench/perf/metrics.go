package main

// perLayer is the ledger: every metric a traced run reports, named after
// the repo's packages. `micro.*` lines are isolated loops over the layer's
// public functions (micro.go); the rest are counts read from public
// counters and a network tap at the harness's span boundaries, or wall
// times of harness spans. A metric whose layer a workload never enters
// reads 0 on that workload. README.md says which end-to-end metric each
// line should move, on which workload.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.events_per_frame", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.micro.schedule_run_ns_d64", "ns", "lower"},
	{"sim.micro.schedule_run_ns_d4096", "ns", "lower"},
	{"sim.micro.wheel_timer_ns", "ns", "lower"},

	{"netsim.micro.link_frame_ns", "ns", "lower"},
	{"netsim.tap_events", "count", "lower"},
	{"netsim.live_frames_end", "count", "lower"},
	{"netsim.coord.windows", "count", "lower"},
	{"netsim.coord.barriers", "count", "lower"},
	{"netsim.coord.exchanged", "count", "lower"},
	{"netsim.coord.wall_ns_per_window", "ns", "lower"},
	{"netsim.coord.wake_ns_per_window", "ns", "lower"},
	{"netsim.coord.shard_efficiency", "ratio", "higher"},
	{"netsim.coord.parallel_efficiency", "ratio", "higher"},
	{"netsim.coord.parallel_wake_ns_per_window", "ns", "lower"},

	{"layers.micro.view_decode_udp_ns", "ns", "lower"},
	{"layers.micro.view_decode_arp_ns", "ns", "lower"},
	{"layers.micro.serialize_udp_ns", "ns", "lower"},

	{"core.micro.hop_ns", "ns", "lower"},
	{"core.micro.table_hit_ns", "ns", "lower"},
	{"core.micro.table_write_ns", "ns", "lower"},
	{"core.forwarded", "count", "lower"},
	{"core.broadcast_relayed", "count", "lower"},
	{"core.race_drop_ratio", "ratio", "lower"},
	{"core.repairs_started", "count", "lower"},
	{"core.revisit_lost", "count", "lower"},

	{"flowpath.micro.pair_hit_ns", "ns", "lower"},
	{"flowpath.micro.pair_write_ns", "ns", "lower"},
	{"learning.micro.table_hit_ns", "ns", "lower"},
	{"learning.micro.table_write_ns", "ns", "lower"},
	{"tables.micro.tracker_touch_ns", "ns", "lower"},
	{"tables.evictions", "count", "lower"},
	{"tables.resident_total", "count", "lower"},
	{"tables.peak_entries_max", "count", "lower"},
	{"tables.flood_amplification", "ratio", "lower"},
	{"tables.incomplete", "count", "lower"},

	{"host.micro.udp_send_ns", "ns", "lower"},

	{"topo.build_ms", "ms", "lower"},
	{"topo.partition_ms", "ms", "lower"},
	{"topo.warmup_ms", "ms", "lower"},

	{"serve.op_ms.ping.p50", "ms", "lower"},
	{"serve.op_ms.burst.p50", "ms", "lower"},
	{"serve.op_ms.stream.p50", "ms", "lower"},
	{"serve.op_ms.matrix.p50", "ms", "lower"},
	{"serve.op_ms.flap.p50", "ms", "lower"},
	{"serve.op_ms.stats.p50", "ms", "lower"},
	{"serve.wire_floor_us", "us", "lower"},
	{"serve.replay_s", "s", "lower"},
	{"serve.events_per_sec", "1/s", "higher"},
	{"serve.virt_s_per_wall_s", "ratio", "higher"},
	{"serve.drain_ms", "ms", "lower"},
	{"serve.oplog_bytes_per_op", "B", "lower"},

	{"runtime.mallocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_sys_mb", "MiB", "lower"},
	{"runtime.peak_rss_mb", "MiB", "lower"},

	{"op_time_p50_us", "us", "lower"},
	{"op_time_tail_us", "us", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	{"ledger.coverage_pct", "%", "higher"},
}
