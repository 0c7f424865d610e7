package main

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run prints, on every
// workload, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"plan_throughput", "speed"},
	{"heap_live_mb", "MB"},
}

// layerNames is the layer prefix of every per-layer metric, one per
// module the traced run times.
var layerNames = []string{"thermal", "mat", "sim", "solver", "verify", "serve", "cluster"}

// perLayer lists the metrics every traced run prints, on every workload,
// in BENCHMARK.json order. A layer a workload does not reach reads 0.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	for _, s := range sweepSpecs {
		for _, m := range s.methods {
			add("ms", "solver.solve_ms."+s.cls+"."+string(m))
		}
	}
	for _, s := range sweepSpecs {
		add("count", "solver.evals."+s.cls, "solver.m_evaluated."+s.cls)
		add("ns", "solver.ns_per_eval."+s.cls)
		add("us", "solver.ideal_us."+s.cls)
	}
	add("us", "solver.lns_us", "solver.exs_us")
	for _, s := range sweepSpecs {
		add("us", "sim.peak_eval_us."+s.cls, "sim.composed_eval_us."+s.cls)
	}
	for _, s := range sweepSpecs {
		add("ms", "thermal.build_ms."+s.cls)
	}
	add("ratio", "thermal.steady_hit_ratio", "thermal.exp_hit_ratio")
	add("count", "thermal.steady_misses", "thermal.exp_misses")
	add("ms", "mat.spchol_factor_ms")
	add("us", "mat.expmv_us")
	for _, s := range sweepSpecs {
		add("ms", "verify.audit_ms."+s.cls)
	}
	add("us", "serve.hit_us")
	add("ms", "serve.miss_ms", "serve.shared_ms")
	add("us", "serve.decode_us", "serve.encode_us", "serve.stats_us")
	add("ratio", "serve.hit_ratio", "serve.shared_ratio")
	add("share", "serve.shed_share", "serve.degraded_share")
	add("count", "serve.queue_depth_max")
	add("ms", "serve.admission_wait_ms")
	add("count", "serve.cache_size")
	add("share", "cluster.local_share", "cluster.peer_fetch_share", "cluster.forwarded_share")
	add("ms", "cluster.forward_ms", "cluster.local_ms")
	add("count", "cluster.forward_failures", "cluster.sync_rounds", "cluster.entries_sent", "cluster.probes_sent")
	add("ratio", "cluster.hit_ratio")
	add("ns", "cluster.ring_owner_ns", "cluster.store_get_ns", "cluster.store_put_ns")
	add("ms", "cluster.snapshot_ms")
	add("ms", "bench.lag_p99_ms", "bench.lag_max_ms", "bench.calib_ms")
	add("share", "bench.trace_overhead_share")
	for _, l := range layerNames {
		add("ms", "trace.self_ms."+l)
	}
	return out
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values by name.
type metricSet map[string]float64

// fill renders the values for defs, with 0 for a name never set. It
// reports the first set name that defs does not list.
func (m metricSet) fill(defs []metricDef) (map[string]metric, string) {
	out := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
		known[d.name] = true
	}
	for n := range m {
		if !known[n] {
			return out, n
		}
	}
	return out, ""
}
