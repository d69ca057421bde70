package main

// layerMetric describes one per-layer metric of the traced run: the
// end-to-end metric a change to the layer should move, the workload it
// should move it on, and the workload it should leave alone. Layers are
// named after the repo's modules. BENCHMARK.json lists the same names
// in the same order (checked by TestCatalogMatchesBenchmarkJSON).
//
// alloc_mb counts allocation in the benchmark process only. On
// die-campaign the runs (and their setup) execute in the dist workers,
// so the setup layers that carry die-campaign are not expected to move
// its alloc_mb. Its peak_rss_mb does include the workers' peak.
type layerMetric struct {
	name, unit string
	moves      string // end-to-end metric this layer should move
	mostlyOn   string // workload where the layer carries the most weight
	littleOn   string // workload where it should not move
}

var layerCatalog = []layerMetric{
	{"sim.rig_build_ms", "ms", "wall_s, sim_minstr_per_s", "die-campaign", "fig10"},
	{"sim.setup_share", "ratio", "wall_s, sim_minstr_per_s", "die-campaign", "fig10"},
	{"faultmap.draw_us", "us", "wall_s, sim_minstr_per_s", "die-campaign", "fig10"},
	{"faultmap.draws", "count", "wall_s, sim_minstr_per_s", "die-campaign", "fig10"},
	{"workload.build_program_us", "us", "sim_minstr_per_s", "die-campaign", "fig10"},
	{"workload.stream_next_ns", "ns", "sim_minstr_per_s", "fig10", "die-campaign"},
	{"workload.instrs_executed", "count", "sim_minstr_per_s", "fig10", "die-campaign"},
	{"bbr.transform_us", "us", "wall_s", "die-campaign", "fig10"},
	{"bbr.link_us", "us", "wall_s", "die-campaign", "fig10"},
	{"bbr.links", "count", "wall_s", "die-campaign", "fig10"},
	{"bbr.yield_fail_frac", "ratio", "wall_s", "die-campaign", "fig10"},
	{"bbr.fetch_ns", "ns", "sim_minstr_per_s", "fig10, hier-chaos", "die-campaign"},
	{"ffw.read_ns", "ns", "sim_minstr_per_s", "fig10, hier-chaos", "die-campaign"},
	{"ffw.write_ns", "ns", "sim_minstr_per_s", "fig10, hier-chaos", "die-campaign"},
	{"schemes.8t.fetch_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.8t.read_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.8t.write_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.simple-wdis.fetch_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.simple-wdis.read_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.simple-wdis.write_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.wilkerson-plus.fetch_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.wilkerson-plus.read_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.wilkerson-plus.write_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.fba-plus.fetch_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.fba-plus.read_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.fba-plus.write_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.idc-plus.fetch_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.idc-plus.read_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.idc-plus.write_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.conventional.fetch_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.conventional.read_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"schemes.conventional.write_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"core.read_block_ns", "ns", "sim_minstr_per_s", "fig10", "die-campaign"},
	{"core.write_word_ns", "ns", "sim_minstr_per_s", "fig10", "die-campaign"},
	{"core.wb_coalesce_frac", "ratio", "sim_minstr_per_s", "fig10", "die-campaign"},
	{"core.demand_reads_per_kinstr", "count", "sim_minstr_per_s", "fig10", "die-campaign"},
	{"core.new_next_level_us", "us", "wall_s", "die-campaign", "fig10"},
	{"cache.l2_access_ns", "ns", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"cache.l2_hit_frac", "ratio", "sim_minstr_per_s", "fig10", "hier-chaos"},
	{"cpu.loop_self_ns_per_instr", "ns", "sim_minstr_per_s", "fig10", "die-campaign"},
	{"engine.busy_frac", "ratio", "wall_s", "fig10", "hier-chaos"},
	{"engine.memo_hit_frac", "ratio", "alloc_mb, wall_s", "fig10, serve-mix", "hier-chaos"},
	{"dist.row_ms", "ms", "wall_s", "die-campaign", "fig10"},
	{"dist.overhead_frac", "ratio", "wall_s", "die-campaign", "fig10"},
	{"dist.checkpoint_flush_ms", "ms", "wall_s", "die-campaign", "fig10"},
	{"event.ns_per_event", "ns", "sim_minstr_per_s", "hier-chaos", "fig10"},
	{"hier.events", "count", "sim_minstr_per_s", "hier-chaos", "fig10"},
	{"hier.host_ns_per_event", "ns", "sim_minstr_per_s", "hier-chaos", "fig10"},
	{"hier.miss_roundtrip_ns", "ns", "sim_minstr_per_s", "hier-chaos", "fig10"},
	{"hier.epoch_ms", "ms", "sim_minstr_per_s", "hier-chaos", "fig10"},
	{"hier.set_rig_ms", "ms", "sim_minstr_per_s", "hier-chaos", "fig10"},
	{"hier.l2_merge_frac", "ratio", "sim_minstr_per_s", "hier-chaos", "fig10"},
	{"hier.l2_wait_cycles", "cycles", "sim_minstr_per_s", "hier-chaos", "fig10"},
	{"inject.faults_injected", "count", "wall_s", "hier-chaos, serve-mix", "fig10"},
	{"inject.recovery_cycle_frac", "ratio", "wall_s", "hier-chaos, serve-mix", "fig10"},
	{"dvfs.transitions", "count", "wall_s", "hier-chaos, serve-mix", "fig10"},
	{"serve.hit_latency_ms", "ms", "latency_p50_ms, latency_tail_ms, req_per_s", "serve-mix", "fig10"},
	{"serve.miss_overhead_ms", "ms", "latency_p50_ms, latency_tail_ms, req_per_s", "serve-mix", "fig10"},
	{"serve.cache_hit_frac", "ratio", "latency_p50_ms, latency_tail_ms, req_per_s", "serve-mix", "fig10"},
	{"serve.run_memo_hit_frac", "ratio", "latency_p50_ms, latency_tail_ms, req_per_s", "serve-mix", "fig10"},
	{"trace.overhead_frac", "ratio", "quality of the attribution", "all", "none"},
	{"trace.unattributed_frac", "ratio", "quality of the attribution", "all", "none"},
}
