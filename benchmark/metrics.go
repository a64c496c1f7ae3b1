package main

// metricDef declares one metric of the contract: BENCHMARK.json lists the
// same names and units, and the smoke test holds the two lists equal.
type metricDef struct{ name, unit string }

// endToEndMetrics is what a user of the system sees. Every workload reports
// every one of them (the contract's rule), so they are defined over an
// "operation": a plan request on plan_*, a training step on train_*.
//
//	ops_per_s        checked operations per second
//	p50_ms, p95_ms   client-side request latency on plan_*; on train_* the
//	                 mean over the five engines of each engine's own median
//	                 (95th percentile) step time. The tail is the 95th
//	                 percentile because it is the highest that has ten
//	                 samples beyond it on the slowest workload (train_conv)
//	speedup_geomean  what out-of-order scheduling buys over conventional
//	                 backprop: on plan_* the geometric mean of the plans'
//	                 simulated speedup (plan quality), on train_* the
//	                 geometric mean over the four non-baseline engines of
//	                 serial step time ÷ engine step time
//	setup_s          set-up of the workload up to its first measured
//	                 operation, median of three set-ups
//
// The three timing metrics and setup_s are times on an undisturbed host: as
// measured, times the host factor of the slice they were measured in (see
// host.go).
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"speedup_geomean", "ratio"},
	{"setup_s", "s"},
}

// perLayerMetrics are the numbers of single layers, from the traced pass. A
// layer a workload never enters reads 0 there.
var perLayerMetrics = []metricDef{
	// plansvc: the service around the planner.
	{"plansvc.plan_call_us", "us"},
	{"plansvc.http_overhead_us", "us"},
	{"plansvc.p99_ms", "ms"},
	{"plansvc.decode_us", "us"},
	{"plansvc.fingerprint_us", "us"},
	{"plansvc.cache_hit_us", "us"},
	{"plansvc.warm_hit_call_us", "us"},
	{"plansvc.encode_us", "us"},
	{"plansvc.body_bytes_p50", "B"},
	{"plansvc.allocs_per_req", "count"},
	{"plansvc.bytes_per_req", "B"},
	{"plansvc.outcome.computed_share", "ratio"},
	{"plansvc.outcome.hit_share", "ratio"},
	{"plansvc.outcome.collapsed_share", "ratio"},
	{"plansvc.cache.hits", "count"},
	{"plansvc.cache.misses", "count"},
	{"plansvc.cache.evictions", "count"},
	{"plansvc.unattributed_share", "ratio"},
	// The planner's stages.
	{"models.build_zoo_us", "us"},
	{"datapar.costs_us", "us"},
	{"plansearch.search_us", "us"},
	{"plansearch.probes_per_plan", "count"},
	{"plansearch.saved_share", "ratio"},
	{"plansearch.mem_footprint_us", "us"},
	{"plansearch.pareto_sweep_us", "us"},
	{"plansearch.memory_search_us", "us"},
	{"core.simulate_iteration_us", "us"},
	{"core.simulate_share", "ratio"},
	{"core.reverse_first_k_us", "us"},
	{"core.mem_schedule_us", "us"},
	{"graph.trace_allocs_us", "us"},
	{"bfc.replay_us", "us"},
	{"bfc.replay_events_p50", "count"},
	// shardsvc: the tier around the service.
	{"shardsvc.ring_owner_ns", "ns"},
	{"shardsvc.route.local_owner_ms_p50", "ms"},
	{"shardsvc.route.peer_cache_ms_p50", "ms"},
	{"shardsvc.route.proxy_ms_p50", "ms"},
	{"shardsvc.route.local_owner_share", "ratio"},
	{"shardsvc.route.peer_cache_share", "ratio"},
	{"shardsvc.route.proxy_share", "ratio"},
	{"shardsvc.single_node_ratio", "ratio"},
	// train: the step and its parts.
	{"train.serial.step_ms", "ms"},
	{"train.ooo.step_ms", "ms"},
	{"train.dp2.step_ms", "ms"},
	{"train.pipe2x4.step_ms", "ms"},
	{"train.recompute.step_ms", "ms"},
	{"train.forward_us", "us"},
	{"nn.loss_us", "us"},
	{"nn.optimizer_us", "us"},
	{"train.backward_serial_us", "us"},
	{"train.backward_ooo_us", "us"},
	{"train.peak_live_grads", "count"},
	{"train.step_overhead_share", "ratio"},
	{"train.dp.forward_us", "us"},
	{"train.dp.backward_us", "us"},
	{"train.dp.reduce_busy_us", "us"},
	{"train.dp.reduce_exposed_us", "us"},
	{"train.dp.buckets", "count"},
	{"train.pipe.bubble_exposed_us", "us"},
	{"train.pipe.bubble_filled_us", "us"},
	{"train.pipe.fill_ratio", "ratio"},
	{"train.pipe.occupancy", "ratio"},
	{"train.recompute.recomputed_layers", "count"},
	{"train.recompute.peak_live_bytes", "B"},
	{"train.recompute.checkpoint_bytes", "B"},
	{"train.serial.allocs_per_step", "count"},
	{"train.ooo.allocs_per_step", "count"},
	{"train.dp2.allocs_per_step", "count"},
	{"train.pipe2x4.allocs_per_step", "count"},
	{"train.recompute.allocs_per_step", "count"},
	// tensor: the kernels at the workload's dominant shapes.
	{"tensor.matmul_us", "us"},
	{"tensor.matmul_t_us", "us"},
	{"tensor.t_matmul_us", "us"},
	{"tensor.im2col_us", "us"},
	{"tensor.col2im_us", "us"},
	// The process and the tracing itself.
	{"process.rss_peak_mb", "MB"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"host.probe_us", "us"},
}
