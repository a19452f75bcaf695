package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and printed for every workload (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_p99_ms", "ms"},
	{"peak_goodput_rps", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced pass's metrics (BENCHMARK.json per_layer).
// Every workload prints all of them; a layer the workload does not
// exercise reads 0.
var perLayer = append(cpuFracDefs(), []metricDef{
	{"security.verify_us", "us"},
	{"security.ca_verify_us", "us"},
	{"security.fanout_us_per_frame", "us"},

	{"scenario.run_ms.pki.p50", "ms"},
	{"scenario.run_ms.pki.max", "ms"},
	{"scenario.run_ms.open.p50", "ms"},
	{"scenario.run_ms.open.max", "ms"},
	{"sim.events", "count"},

	{"engine.wait_ms.p50", "ms"},
	{"engine.wait_ms.max", "ms"},
	{"engine.idle_frac", "ratio"},
	{"engine.steals", "count"},

	{"phy.fading_draws", "count"},
	{"phy.deep_fades", "count"},
	{"mac.tx", "count"},
	{"mac.delivered", "count"},
	{"mac.lost", "count"},
	{"mac.backoffs", "count"},
	{"mac.queue_drops", "count"},
	{"mac.pdr", "ratio"},

	{"attack.injected", "count"},
	{"defense.detections", "count"},
	{"defense.trust_blocked", "count"},

	{"world.run_ms", "ms"},
	{"world.epoch_ms.p50", "ms"},
	{"world.epoch_ms.p99", "ms"},
	{"world.shard_step_ms.p50", "ms"},
	{"world.shard_step_ms.p99", "ms"},
	{"world.barrier_ms.p50", "ms"},
	{"world.barrier_ms.p99", "ms"},
	{"world.barrier_frac", "ratio"},
	{"world.frames_tx", "count"},
	{"world.delivered", "count"},
	{"world.lost", "count"},
	{"world.jammed", "count"},
	{"world.unit_ticks", "count"},
	{"world.migrations", "count"},

	{"service.hit_ms.p50", "ms"},
	{"service.hit_ms.p99", "ms"},
	{"service.miss_ms.p50", "ms"},
	{"service.miss_ms.p99", "ms"},
	{"service.decode_us.p50", "us"},
	{"service.decode_us.p99", "us"},
	{"service.cache_lookup_us.p50", "us"},
	{"service.cache_lookup_us.p99", "us"},
	{"service.queue_wait_ms.p50", "ms"},
	{"service.queue_wait_ms.p99", "ms"},
	{"service.engine_ms.p50", "ms"},
	{"service.engine_ms.p99", "ms"},
	{"service.cache_put_us.p50", "us"},
	{"service.cache_put_us.p99", "us"},
	{"service.serve_us.p50", "us"},
	{"service.serve_us.p99", "us"},
	{"service.hit_frac", "ratio"},
	{"service.dedup", "count"},
	{"service.spill_hits", "count"},
	{"service.evictions", "count"},
	{"service.spill_writes", "count"},
	{"service.rejected", "count"},

	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}...)

// cpuFracDefs is one <layer>.cpu_frac metric per attribution bucket.
func cpuFracDefs() []metricDef {
	defs := make([]metricDef, len(Layers))
	for i, l := range Layers {
		defs[i] = metricDef{l + ".cpu_frac", "ratio"}
	}
	return defs
}
