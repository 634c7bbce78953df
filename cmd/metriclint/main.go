// Command metriclint is the metric-hygiene gate: it instantiates the real
// coordinator/server and worker registries (the same constructors hyperd
// runs), lints every registered family against the stack's naming scheme
// (hyper_ prefix, counters end _total, help strings present, valid label
// names — see obs.Registry.Lint), and checks that the core series each
// deployment role is documented to serve are actually registered. CI runs it
// on every pull request, so a metric cannot be renamed, dropped, or added
// malformed without failing the build. Duplicate registration panics inside
// obs itself, which this tool surfaces as an ordinary non-zero exit.
//
// Usage:
//
//	go run ./cmd/metriclint
package main

import (
	"fmt"
	"os"

	"hyper/internal/dist"
	"hyper/internal/obs"
	"hyper/internal/server"
)

// Core series per role: the names DESIGN.md and the dashboards depend on.
// Extending the schema is fine; silently losing one of these is not.
var (
	coordinatorCore = []string{
		"hyper_uptime_seconds",
		"hyper_sessions",
		"hyper_requests_total",
		"hyper_request_errors_total",
		"hyper_request_duration_ms",
		"hyper_slow_queries_total",
		"hyper_traces_recorded_total",
		"hyper_engine_cache_hits_total",
		"hyper_engine_cache_misses_total",
		"hyper_plan_cache_hits_total",
		"hyper_plan_cache_misses_total",
		"hyper_plan_cache_evictions_total",
		"hyper_plan_compile_ms",
		"hyper_jobs_queued",
		"hyper_jobs_running",
		"hyper_jobs_completed_total",
		"hyper_dist_workers_alive",
		"hyper_dist_remote_shards_total",
		"hyper_dist_requeue_events_total",
		"hyper_dist_retries_total",
		"hyper_dist_breaker_state",
		"hyper_dist_workers_restored_total",
		"hyper_dist_persist_errors_total",
		"hyper_fault_injected_total",
		"hyper_server_panics_total",
		"hyper_query_cost_tuples",
		"hyper_query_cost_shards",
		"hyper_go_goroutines",
		"hyper_go_heap_bytes",
		"hyper_build_info",
	}
	workerCore = []string{
		"hyper_worker_evals_total",
		"hyper_worker_eval_shards_total",
		"hyper_worker_frame_bytes_received_total",
		"hyper_worker_frames",
		"hyper_worker_traces_recorded_total",
		"hyper_worker_inflight",
		"hyper_fault_injected_total",
		"hyper_go_goroutines",
		"hyper_go_heap_bytes",
		"hyper_build_info",
	}
)

func check(role string, reg *obs.Registry, core []string) (problems []string) {
	for _, p := range reg.Lint() {
		problems = append(problems, fmt.Sprintf("%s: %s", role, p))
	}
	have := map[string]bool{}
	for _, n := range reg.Names() {
		if have[n] {
			problems = append(problems, fmt.Sprintf("%s: duplicate family %s", role, n))
		}
		have[n] = true
	}
	for _, want := range core {
		if !have[want] {
			problems = append(problems, fmt.Sprintf("%s: core series %s is not registered", role, want))
		}
	}
	return problems
}

func main() {
	// Constructing the registries can panic (obs panics on duplicate or
	// malformed registration); report that as a lint failure, not a crash.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "metriclint: FAIL: registration panicked: %v\n", r)
			os.Exit(1)
		}
	}()

	var problems []string
	problems = append(problems, check("coordinator", server.New(server.Config{}).Metrics(), coordinatorCore)...)
	problems = append(problems, check("worker", dist.NewWorker(dist.WorkerConfig{}).Metrics(), workerCore)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "metriclint: FAIL: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Println("metriclint: PASS — coordinator and worker metric schemas are clean")
}
