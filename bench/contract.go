package main

import "encoding/json"

// metricDef names one metric of the contract in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds, and it is the default for a run started by hand.
const runSeconds = 15

var workloadDefs = []workloadDef{
	{"cold_whatif", "first query of a session: fresh engine and plan caches per op, so plan compile, ml encode/freq fit, shard fan-out and the tuple loop do all the work"},
	{"warm_serve", "dashboard steady state over hyperd: every artifact is a cache hit, so per-request fixed cost (server, parse, fingerprint, cache lookups, prepare) dominates and fitting does nothing"},
	{"join_forest", "the paper's Figure-1 shape: join + GROUP BY view, cross-tuple blocks and a continuous update, so sqlmini view building, causal blocks and the ml forest dominate"},
	{"howto_ip", "how-to queries fan into 13-15 candidate what-ifs sharing one cache as an intra-query memo, then the IP: shows a what-if gain that hurts the candidate pool"},
	{"append_mix", "writes beside reads over hyperd: append a batch of rows, query the head, query pinned snapshot 1; cache identity changes per version and the snapshot chain grows"},
	{"dist_workers", "hyperd plus two loopback workers: the only place frame ship, RPC, merge and worker-side re-preparation run; workers-placed and local answers are compared pair by pair"},
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; none is ever zero.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"retained_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, prefixed by module name. A
// workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{"client.op_p50_ms", "ms", "lower", 0},
	{"client.op_tail_ms", "ms", "lower", 0},
	{"client.op_tail_pctile", "%", "higher", 0},
	{"client.samples", "count", "higher", 0},
	{"client.wall_s", "s", "lower", 0},
	{"bench.ref_kernel_ms", "ms", "lower", 0},
	{"bench.speed_factor", "ratio", "higher", 0},
	{"truth.err_pct", "%", "lower", 0},
	{"truth.checked", "count", "higher", 0},

	{"hyperql.parse_us", "us", "lower", 0},
	{"hyperql.fingerprint_us", "us", "lower", 0},

	{"plan.stage_ms", "ms", "lower", 0},
	{"plan.compile_ms", "ms", "lower", 0},
	{"plan.hit_us", "us", "lower", 0},
	{"plan.apply_ms", "ms", "lower", 0},
	{"plan.pushed_per_op", "count", "higher", 0},
	{"plan.cache_hit_ratio", "ratio", "higher", 0},

	{"ml.collect_stats_ms", "ms", "lower", 0},
	{"ml.encode_ms", "ms", "lower", 0},
	{"ml.intern_ms", "ms", "lower", 0},
	{"ml.freq_fit_ms", "ms", "lower", 0},
	{"ml.freq_fit_allocs", "count", "lower", 0},
	{"ml.freq_predict_ns", "ns", "lower", 0},
	{"ml.forest_fit_ms", "ms", "lower", 0},
	{"ml.forest_predict_ns", "ns", "lower", 0},
	{"ml.linear_fit_ms", "ms", "lower", 0},
	{"ml.digest_advance_ms", "ms", "lower", 0},

	{"sqlmini.view_ms", "ms", "lower", 0},
	{"causal.rowblocks_ms", "ms", "lower", 0},
	{"causal.blocks", "count", "lower", 0},

	{"engine.view_ms", "ms", "lower", 0},
	{"engine.block_ms", "ms", "lower", 0},
	{"engine.train_ms", "ms", "lower", 0},
	{"engine.eval_ms", "ms", "lower", 0},
	{"engine.total_ms", "ms", "lower", 0},
	{"engine.unattributed_ms", "ms", "lower", 0},
	{"engine.dryrun_ms", "ms", "lower", 0},
	{"engine.eval_partial_ms", "ms", "lower", 0},
	{"engine.merge_us", "us", "lower", 0},
	{"engine.tuples_per_s", "1/s", "higher", 0},
	{"engine.trained_models_per_op", "count", "lower", 0},
	{"engine.cache_hit_ratio", "ratio", "higher", 0},
	{"engine.cache_entries", "count", "lower", 0},
	{"engine.cache_evictions", "count", "lower", 0},

	{"shard.plan_shards", "count", "higher", 0},
	{"shard.serial_ms", "ms", "lower", 0},
	{"shard.speedup", "ratio", "higher", 0},

	{"howto.candidates_ms", "ms", "lower", 0},
	{"howto.candidates_per_op", "count", "lower", 0},
	{"howto.whatif_evals_per_op", "count", "lower", 0},
	{"howto.score_ms", "ms", "lower", 0},
	{"ip.nodes_per_op", "count", "lower", 0},
	{"ip.solve_us", "us", "lower", 0},

	{"relation.parse_append_ms", "ms", "lower", 0},
	{"relation.extend_ms", "ms", "lower", 0},
	{"server.append_p50_ms", "ms", "lower", 0},
	{"server.head_whatif_p50_ms", "ms", "lower", 0},
	{"server.pinned_whatif_p50_ms", "ms", "lower", 0},
	{"server.append_shards_fitted", "count", "lower", 0},
	{"server.append_shards_reused", "count", "higher", 0},
	{"server.snapshots_end", "count", "lower", 0},
	{"server.heap_mb_per_version", "MB", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.handler_ms", "ms", "lower", 0},
	{"server.scaling_2c", "ratio", "higher", 0},
	{"server.stats_ms", "ms", "lower", 0},
	{"server.metrics_scrape_ms", "ms", "lower", 0},

	{"jobs.submit_to_done_ms", "ms", "lower", 0},
	{"jobs.queue_wait_ms", "ms", "lower", 0},
	{"jobs.cancel_ms", "ms", "lower", 0},

	{"dist.first_ship_ms", "ms", "lower", 0},
	{"dist.frame_bytes", "bytes", "lower", 0},
	{"dist.bytes_per_op", "bytes", "lower", 0},
	{"dist.local_p50_ms", "ms", "lower", 0},
	{"dist.overhead_ratio", "ratio", "lower", 0},
	{"dist.worker_eval_ms", "ms", "lower", 0},
	{"dist.retries", "count", "lower", 0},
	{"dist.degraded", "count", "lower", 0},

	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"obs.untraced_iqr_pct", "%", "lower", 0},
	{"obs.traced_iqr_pct", "%", "lower", 0},
	{"obs.meter_overhead_pct", "%", "lower", 0},

	{"hyper.alloc_kb_per_op", "KB", "lower", 0},
	{"hyper.mallocs_per_op", "count", "lower", 0},
	{"hyper.gc_cycles", "count", "lower", 0},
}

// contractJSON renders BENCHMARK.json from the tables above, so the file at
// the repository root cannot drift from what the program emits (a test
// compares the two).
func contractJSON() []byte {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // Bound is 0 and omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static tables; cannot fail
	}
	return append(raw, '\n')
}
