// Command distsmoke is the distributed-path smoke gate: it boots one real
// hyperd coordinator process plus two real hyperd worker processes, runs
// the toy and german what-if goldens through both placements ("local",
// "workers"), and fails on any byte of divergence between the distributed
// results and the single-node ones (a how-to never leaves the serving
// process, so it has no distributed result to compare). CI runs it on every
// pull request (the dist-smoke job), so the bit-identity contract of the
// shard transport is enforced against real processes and real sockets, not
// just in-process test doubles.
//
// Usage:
//
//	go build -o /tmp/hyperd ./cmd/hyperd
//	go run ./cmd/distsmoke -hyperd /tmp/hyperd
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "distsmoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

func freePort() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("picking port: %v", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// proc is one spawned hyperd process.
type proc struct {
	name string
	cmd  *exec.Cmd
}

func spawn(name, bin string, args ...string) *proc {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("starting %s: %v", name, err)
	}
	fmt.Fprintf(os.Stderr, "distsmoke: started %s (pid %d): %s %v\n", name, cmd.Process.Pid, bin, args)
	return &proc{name: name, cmd: cmd}
}

func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

func waitHealthy(base string, deadline time.Duration) {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	fatalf("%s did not become healthy within %s", base, deadline)
}

func waitWorkers(base string, want int, deadline time.Duration) {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		var out struct {
			Workers []struct {
				Alive bool `json:"alive"`
			} `json:"workers"`
		}
		resp, err := http.Get(base + "/dist/v1/workers")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err == nil {
				alive := 0
				for _, w := range out.Workers {
					if w.Alive {
						alive++
					}
				}
				if alive >= want {
					return
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	fatalf("coordinator never saw %d live workers within %s", want, deadline)
}

func post(base, path string, body any) (int, []byte) {
	raw, err := json.Marshal(body)
	if err != nil {
		fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, payload
}

// stable is the placement-independent subset of a what-if response: every
// semantic field of the result, none of the execution diagnostics. Encoding
// it with encoding/json (shortest-round-trip float formatting) makes the
// comparison exactly byte-for-byte on the float64 values.
type stable struct {
	Value       float64  `json:"value"`
	Sum         float64  `json:"sum"`
	Count       float64  `json:"count"`
	Mode        string   `json:"mode"`
	Estimator   string   `json:"estimator"`
	Backdoor    []string `json:"backdoor"`
	Blocks      int      `json:"blocks"`
	Disjuncts   int      `json:"disjuncts"`
	ViewRows    int      `json:"view_rows"`
	UpdatedRows int      `json:"updated_rows"`
	SampledRows int      `json:"sampled_rows"`
	ShardPlan   int      `json:"shard_plan"`
}

type whatIfResp struct {
	stable
	Placement     string `json:"placement"`
	RemoteWorkers int    `json:"remote_workers"`
	// Degraded/DegradedReason are execution diagnostics (never part of the
	// byte-compared stable subset): the chaos suite asserts them.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason"`
}

func stableBytes(payload []byte, dst any) []byte {
	if err := json.Unmarshal(payload, dst); err != nil {
		fatalf("decoding response: %v (%s)", err, payload)
	}
	out, err := json.Marshal(dst)
	if err != nil {
		fatalf("re-encoding response: %v", err)
	}
	return out
}

// span mirrors obs.SpanJSON (distsmoke deliberately decodes the wire shape,
// not the Go type, so the tool also guards the JSON contract).
type span struct {
	Name     string         `json:"name"`
	Attrs    map[string]any `json:"attrs"`
	Children []*span        `json:"children"`
}

func (s *span) find(name string) *span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if hit := c.find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// checkDistTrace runs one traced distributed what-if and asserts the
// coordinator grafted the workers' span trees into a single end-to-end
// trace: one worker_eval child per assigned worker shard range, each with
// the remote tree attached, shard counts reconciling with the plan.
func checkDistTrace(cbase string) {
	var res struct {
		ShardPlan     int `json:"shard_plan"`
		RemoteWorkers int `json:"remote_workers"`
		Trace         *struct {
			ID   string `json:"id"`
			Root *span  `json:"root"`
		} `json:"trace"`
	}
	status, payload := post(cbase, "/v1/sessions/german/whatif?trace=1", map[string]any{
		"placement": "workers",
		"query":     `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
	})
	if status != http.StatusOK {
		fatalf("traced whatif: status %d: %s", status, payload)
	}
	if err := json.Unmarshal(payload, &res); err != nil {
		fatalf("traced whatif: %v", err)
	}
	if res.Trace == nil || res.Trace.Root == nil || res.Trace.ID == "" {
		fatalf("?trace=1 returned no trace")
	}
	de := res.Trace.Root.find("dist_eval")
	if de == nil {
		fatalf("traced distributed whatif has no dist_eval span")
	}
	shardSum, workerSpans, grafted := 0.0, 0, 0
	for _, c := range de.Children {
		if c.Name != "worker_eval" {
			continue
		}
		workerSpans++
		shards, _ := c.Attrs["shards"].(float64)
		shardSum += shards
		if c.find("eval") != nil {
			grafted++
		}
	}
	if workerSpans != res.RemoteWorkers || workerSpans == 0 {
		fatalf("trace has %d worker_eval spans, response reports %d remote workers", workerSpans, res.RemoteWorkers)
	}
	if grafted != workerSpans {
		fatalf("only %d of %d worker_eval spans carry a grafted remote tree", grafted, workerSpans)
	}
	if int(shardSum) != res.ShardPlan {
		fatalf("worker_eval shard counts sum to %v, plan is %d", shardSum, res.ShardPlan)
	}
	fmt.Fprintf(os.Stderr, "distsmoke: trace %s ok: %d worker spans, %d/%d shards grafted end-to-end\n",
		res.Trace.ID, workerSpans, int(shardSum), res.ShardPlan)
}

// scrapeMetrics fetches and parses a Prometheus text exposition, failing on
// any malformed line, and returns series -> value (series includes labels).
func scrapeMetrics(name, base string) map[string]float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		fatalf("%s /metrics: %v", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("%s /metrics: status %d", name, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		fatalf("%s /metrics: content type %q", name, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("%s /metrics: %v", name, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			fatalf("%s /metrics: malformed line %q", name, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			fatalf("%s /metrics: bad value in %q: %v", name, line, err)
		}
		out[line[:sp]] = v
	}
	if len(out) == 0 {
		fatalf("%s /metrics: empty exposition", name)
	}
	return out
}

func requireSeries(name string, series map[string]float64, want ...string) {
	for _, w := range want {
		if _, ok := series[w]; !ok {
			fatalf("%s /metrics is missing series %q", name, w)
		}
	}
}

// requireHealthGauges asserts the runtime health series every process must
// expose: live goroutine and heap gauges with sane values, and the build
// info series (its go_version label varies, so it is matched by prefix).
func requireHealthGauges(name string, series map[string]float64) {
	requireSeries(name, series, "hyper_go_goroutines", "hyper_go_heap_bytes")
	if series["hyper_go_goroutines"] < 1 || series["hyper_go_heap_bytes"] < 1 {
		fatalf("%s health gauges are implausible: goroutines=%v heap=%v",
			name, series["hyper_go_goroutines"], series["hyper_go_heap_bytes"])
	}
	for s, v := range series {
		if strings.HasPrefix(s, `hyper_build_info{go_version="`) && v == 1 {
			return
		}
	}
	fatalf("%s /metrics is missing hyper_build_info with a go_version label", name)
}

// checkUsageReconciliation scrapes /v1/usage and asserts the cross-process
// cost ledgers: every shape that shipped shards to workers without a retry
// must report coordinator-side dispatch totals (remote_shards,
// dist_bytes_shipped) exactly equal to the summed worker-reported totals
// (worker_shards_run, worker_bytes_received).
func checkUsageReconciliation(cbase string) {
	// Decoded as wire JSON, not the Go types, so the tool also guards the
	// /v1/usage contract.
	var usage struct {
		Shapes []struct {
			Kind        string `json:"kind"`
			Fingerprint string `json:"fingerprint"`
			Count       uint64 `json:"count"`
			Cost        struct {
				TuplesEvaluated  uint64 `json:"tuples_evaluated"`
				RemoteShards     uint64 `json:"remote_shards"`
				WorkerShardsRun  uint64 `json:"worker_shards_run"`
				DistBytesShipped uint64 `json:"dist_bytes_shipped"`
				WorkerBytes      uint64 `json:"worker_bytes_received"`
				Retries          uint64 `json:"retries"`
				Workers          uint64 `json:"workers"`
			} `json:"cost"`
		} `json:"shapes"`
	}
	resp, err := http.Get(cbase + "/v1/usage")
	if err != nil {
		fatalf("usage: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&usage)
	resp.Body.Close()
	if err != nil {
		fatalf("usage: %v", err)
	}
	if len(usage.Shapes) == 0 {
		fatalf("/v1/usage is empty after the golden runs")
	}
	distRows := 0
	for _, row := range usage.Shapes {
		c := row.Cost
		if row.Fingerprint == "" {
			fatalf("usage row for kind %q has no fingerprint", row.Kind)
		}
		if c.RemoteShards == 0 {
			continue
		}
		distRows++
		if c.Retries > 0 {
			fmt.Fprintf(os.Stderr, "distsmoke: usage %s/%s had %d retries — reconciliation waived\n",
				row.Kind, row.Fingerprint, c.Retries)
			continue
		}
		if c.WorkerShardsRun != c.RemoteShards {
			fatalf("usage %s/%s: coordinator dispatched %d shards, workers reported %d",
				row.Kind, row.Fingerprint, c.RemoteShards, c.WorkerShardsRun)
		}
		if c.WorkerBytes != c.DistBytesShipped {
			fatalf("usage %s/%s: coordinator shipped %d request bytes, workers received %d",
				row.Kind, row.Fingerprint, c.DistBytesShipped, c.WorkerBytes)
		}
		if c.Workers == 0 {
			// Remote shards imply at least one folded worker response.
			fatalf("usage %s/%s: remote shards with no folded workers: %+v", row.Kind, row.Fingerprint, c)
		}
	}
	if distRows == 0 {
		fatalf("no usage row shipped shards remotely; the distributed path left no per-query ledger")
	}
	fmt.Fprintf(os.Stderr, "distsmoke: usage ok: %d distributed shapes, per-query ledgers reconcile exactly\n", distRows)
}

// golden is one named query against one session.
type golden struct {
	name, session, query string
}

var whatifGoldens = []golden{
	{"german-count", "german", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`},
	{"german-for", "german", `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`},
	{"german-avg", "german", `USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`},
	{"toy-avg", "toy", `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand,
		AVG(T2.Rating) AS Rtng
		FROM Product AS T1, Review AS T2
		WHERE T1.PID = T2.PID
		GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand)
		WHEN Brand = 'Asus'
		UPDATE(Price) = 1.1 * PRE(Price)
		OUTPUT AVG(POST(Rtng))
		FOR PRE(Category) = 'Laptop'`},
}

// createSessions makes the toy and german sessions on a coordinator — the
// toy catalog (multi-relation, forest estimator) and a german build at a
// shard granularity that spreads the plan over both workers
// (5000 rows / 256 -> 20 plan shards).
func createSessions(cbase string) {
	for _, s := range []any{
		map[string]any{"name": "toy", "dataset": "toy", "options": map[string]any{"seed": 7}},
		map[string]any{"name": "german", "dataset": "german", "options": map[string]any{"seed": 7, "shard_rows": 256}},
	} {
		if status, payload := post(cbase, "/v1/sessions", s); status != http.StatusOK {
			fatalf("creating session: %d %s", status, payload)
		}
	}
}

func main() {
	hyperd := flag.String("hyperd", "hyperd", "path to the hyperd binary")
	chaos := flag.Bool("chaos", false, "run the fault-injection chaos suite (injected faults, a mid-query worker kill, a coordinator restart) instead of the plain smoke")
	flag.Parse()
	if *chaos {
		runChaos(*hyperd)
		return
	}
	runSmoke(*hyperd)
}

// runSmoke is the plain happy-path gate: every placement of every golden is
// byte-identical to local, traces stitch end to end, metrics reconcile.
func runSmoke(hyperd string) {
	cport, w1port, w2port := freePort(), freePort(), freePort()
	cbase := fmt.Sprintf("http://127.0.0.1:%d", cport)

	coord := spawn("coordinator", hyperd,
		"-addr", fmt.Sprintf("127.0.0.1:%d", cport),
		"-dist-ttl", "5s", "-quiet")
	defer coord.stop()
	waitHealthy(cbase, 30*time.Second)

	for i, port := range []int{w1port, w2port} {
		w := spawn(fmt.Sprintf("worker%d", i+1), hyperd,
			"-worker",
			"-coordinator", cbase,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-worker-id", fmt.Sprintf("smoke-w%d", i+1),
			"-heartbeat", "500ms", "-quiet")
		defer w.stop()
	}
	waitWorkers(cbase, 2, 30*time.Second)

	createSessions(cbase)

	for _, g := range whatifGoldens {
		run := func(placement string) ([]byte, whatIfResp) {
			var r whatIfResp
			status, payload := post(cbase, "/v1/sessions/"+g.session+"/whatif", map[string]any{
				"query": g.query, "placement": placement,
			})
			if status != http.StatusOK {
				fatalf("%s (%s): status %d: %s", g.name, placement, status, payload)
			}
			if err := json.Unmarshal(payload, &r); err != nil {
				fatalf("%s (%s): %v", g.name, placement, err)
			}
			return stableBytes(payload, &r.stable), r
		}
		workersBytes, wresp := run("workers")
		localBytes, _ := run("local")
		if !bytes.Equal(workersBytes, localBytes) {
			fatalf("%s: placement=workers diverges from local:\n  workers: %s\n  local:   %s", g.name, workersBytes, localBytes)
		}
		if wresp.Placement != "workers" || wresp.RemoteWorkers < 1 {
			fatalf("%s: distributed run reports placement=%q remote_workers=%d — the workers were not used",
				g.name, wresp.Placement, wresp.RemoteWorkers)
		}
		fmt.Fprintf(os.Stderr, "distsmoke: %-14s ok (local == workers): %s\n", g.name, localBytes)
	}

	// The coordinator must have actually distributed work.
	var stats struct {
		Dist struct {
			RemoteEvals   uint64 `json:"remote_evals"`
			RemoteShards  uint64 `json:"remote_shards"`
			FramesShipped uint64 `json:"frames_shipped"`
			WorkersAlive  int    `json:"workers_alive"`
		} `json:"dist"`
	}
	resp, err := http.Get(cbase + "/v1/stats")
	if err != nil {
		fatalf("stats: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		fatalf("stats: %v", err)
	}
	if stats.Dist.WorkersAlive != 2 || stats.Dist.RemoteEvals == 0 || stats.Dist.RemoteShards == 0 ||
		stats.Dist.FramesShipped == 0 {
		fatalf("coordinator gauges say the distributed path did not run: %+v", stats.Dist)
	}
	fmt.Fprintf(os.Stderr, "distsmoke: gauges: %+v\n", stats.Dist)

	// One traced distributed run must stitch a single cross-process trace.
	checkDistTrace(cbase)

	// All three processes must expose well-formed Prometheus text with their
	// core series, and the worker-side shard counters must reconcile with the
	// coordinator's ledger (exact when nothing was requeued).
	coordSeries := scrapeMetrics("coordinator", cbase)
	requireSeries("coordinator", coordSeries,
		`hyper_requests_total{endpoint="whatif"}`,
		`hyper_request_duration_ms_count{endpoint="whatif"}`,
		`hyper_query_cost_wall_ms_count{endpoint="whatif"}`,
		`hyper_query_cost_tuples_count{endpoint="whatif"}`,
		"hyper_dist_remote_shards_total",
		"hyper_dist_workers_alive",
		"hyper_uptime_seconds",
		"hyper_traces_recorded_total",
		"hyper_plan_cache_hits_total",
		"hyper_plan_cache_misses_total",
		"hyper_plan_cache_evictions_total",
		"hyper_plan_compile_ms_count",
	)
	requireHealthGauges("coordinator", coordSeries)
	// Every coordinator session carries a plan cache, so the queries above
	// must have planned: at least one compile (first shape is a miss).
	if coordSeries["hyper_plan_cache_misses_total"] < 1 || coordSeries["hyper_plan_compile_ms_count"] < 1 {
		fatalf("planner never ran: plan cache misses=%v compiles=%v",
			coordSeries["hyper_plan_cache_misses_total"], coordSeries["hyper_plan_compile_ms_count"])
	}
	workerShards := 0.0
	for i, port := range []int{w1port, w2port} {
		name := fmt.Sprintf("worker%d", i+1)
		ws := scrapeMetrics(name, fmt.Sprintf("http://127.0.0.1:%d", port))
		requireSeries(name, ws,
			"hyper_worker_evals_total",
			"hyper_worker_eval_shards_total",
			"hyper_worker_frames",
		)
		requireHealthGauges(name, ws)
		if ws["hyper_worker_evals_total"] == 0 {
			fatalf("%s served no evals according to its own counters", name)
		}
		workerShards += ws["hyper_worker_eval_shards_total"]
	}
	if requeues := coordSeries["hyper_dist_requeues_total"]; requeues == 0 {
		if remote := coordSeries["hyper_dist_remote_shards_total"]; workerShards != remote {
			fatalf("shard ledgers disagree: workers served %v shards, coordinator recorded %v", workerShards, remote)
		}
	} else {
		fmt.Fprintf(os.Stderr, "distsmoke: %v requeues — skipping exact shard reconciliation\n", requeues)
	}
	fmt.Fprintf(os.Stderr, "distsmoke: metrics ok: workers served %v shards, coordinator ledger matches\n", workerShards)

	// The per-query ledgers must reconcile too: /v1/usage rows that shipped
	// shards across processes carry both sides of the byte and shard counts.
	checkUsageReconciliation(cbase)

	// MVCC: append rows mid-run and assert distributed as-of results stay
	// byte-identical to local, for both the pinned old version and the head.
	checkMVCCAppend(cbase)

	fmt.Println("distsmoke: PASS — distributed evaluation is bit-identical to single-node on toy and german")
}

// checkMVCCAppend grows a session while the workers are live: the pinned
// pre-append version must keep answering with its original bytes on every
// placement (the delta ship may not disturb resident frames), and the new
// head must be byte-identical between local and workers even though the
// workers received only the appended segment, not a fresh snapshot.
func checkMVCCAppend(cbase string) {
	loansCSV := func(lo, hi int) string {
		csv := "Status,Savings,Credit\n"
		for i := lo; i < hi; i++ {
			csv += fmt.Sprintf("%d,%d,%d\n", i%4, (i/2)%3, (i+i/5)%2)
		}
		return csv
	}
	if status, payload := post(cbase, "/v1/sessions", map[string]any{
		"name": "grow",
		"csv": map[string]any{
			"tables": []map[string]any{{"name": "Loans", "data": loansCSV(0, 600)}},
			"model": map[string]any{"edges": [][2]string{
				{"Loans.Status", "Loans.Credit"},
				{"Loans.Savings", "Loans.Credit"},
			}},
		},
		"options": map[string]any{"seed": 7, "shard_rows": 256},
	}); status != http.StatusOK {
		fatalf("mvcc: creating session grow: %d %s", status, payload)
	}
	const query = `USE Loans WHEN Savings = 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	run := func(placement string, snapshot int64) []byte {
		body := map[string]any{"query": query, "placement": placement}
		if snapshot != 0 {
			body["snapshot"] = snapshot
		}
		status, payload := post(cbase, "/v1/sessions/grow/whatif", body)
		if status != http.StatusOK {
			fatalf("mvcc: whatif (%s, snapshot %d): status %d: %s", placement, snapshot, status, payload)
		}
		var r whatIfResp
		return stableBytes(payload, &r.stable)
	}
	preLocal := run("local", 0)
	preWorkers := run("workers", 0)
	if !bytes.Equal(preLocal, preWorkers) {
		fatalf("mvcc: pre-append workers diverges from local:\n  workers: %s\n  local:   %s", preWorkers, preLocal)
	}

	var appendResp struct {
		Version      int64 `json:"version"`
		Rows         int   `json:"rows"`
		ShardsFitted int   `json:"shards_fitted"`
		ShardsReused int   `json:"shards_reused"`
	}
	status, payload := post(cbase, "/v1/sessions/grow/rows", map[string]any{
		"tables": []map[string]any{{"name": "Loans", "data": loansCSV(600, 1100)}},
	})
	if status != http.StatusOK {
		fatalf("mvcc: append: %d %s", status, payload)
	}
	if err := json.Unmarshal(payload, &appendResp); err != nil {
		fatalf("mvcc: append response: %v (%s)", err, payload)
	}
	if appendResp.Version != 2 || appendResp.Rows != 1100 {
		fatalf("mvcc: append published %+v, want version 2 with 1100 rows", appendResp)
	}
	// Two creation-sealed shards at target 256 must be reused, never refit.
	if appendResp.ShardsFitted != 3 || appendResp.ShardsReused != 2 {
		fatalf("mvcc: append fitted=%d reused=%d, want 3/2 — history was rescanned", appendResp.ShardsFitted, appendResp.ShardsReused)
	}

	for _, placement := range []string{"local", "workers"} {
		if got := run(placement, 1); !bytes.Equal(got, preLocal) {
			fatalf("mvcc: as-of-1 (%s) diverges from pre-append bytes:\n  got:  %s\n  want: %s", placement, got, preLocal)
		}
	}
	headLocal := run("local", 0)
	headWorkers := run("workers", 0)
	if !bytes.Equal(headLocal, headWorkers) {
		fatalf("mvcc: post-append workers diverges from local:\n  workers: %s\n  local:   %s", headWorkers, headLocal)
	}
	if bytes.Equal(headLocal, preLocal) {
		fatalf("mvcc: append did not change the head result — the as-of check is vacuous")
	}
	fmt.Fprintf(os.Stderr, "distsmoke: mvcc ok (as-of-1 stable, head local == workers, fit 3 / reuse 2)\n")
}

// distStats fetches the coordinator's /v1/stats dist block.
type distStats struct {
	WorkersAlive       int    `json:"workers_alive"`
	WorkersRegistered  int    `json:"workers_registered"`
	WorkersQuarantined int    `json:"workers_quarantined"`
	WorkersLost        uint64 `json:"workers_lost"`
	Requeues           uint64 `json:"requeues"`
	FramesShipped      uint64 `json:"frames_shipped"`
	LocalFallbacks     uint64 `json:"local_fallbacks"`
	Retries            uint64 `json:"retries"`
	RestoredWorkers    uint64 `json:"restored_workers"`
	PersistErrors      uint64 `json:"persist_errors"`
	FaultsInjected     uint64 `json:"faults_injected"`
}

func getDistStats(cbase string) distStats {
	var out struct {
		Dist distStats `json:"dist"`
	}
	resp, err := http.Get(cbase + "/v1/stats")
	if err != nil {
		fatalf("stats: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		fatalf("stats: %v", err)
	}
	return out.Dist
}

// sigkill hard-kills a process (no drain, no deregistration) — the chaos
// suite's stand-in for a coordinator crash.
func (p *proc) sigkill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// stopClean SIGTERMs a process and requires a zero exit status — the
// graceful-drain contract.
func (p *proc) stopClean() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fatalf("%s did not exit cleanly on SIGTERM: %v", p.name, err)
		}
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		fatalf("%s did not exit within 30s of SIGTERM", p.name)
	}
}

// runChaos is the resilience gate: deterministic injected faults (a frame
// ship error, dial delays, a worker killed mid-eval), a circuit-breaker
// quarantine, and a coordinator crash + state-file restart — while every
// answer stays byte-identical to the local baseline and every response
// reports its degradation honestly.
func runChaos(hyperd string) {
	stateDir, err := os.MkdirTemp("", "distsmoke-chaos-")
	if err != nil {
		fatalf("temp dir: %v", err)
	}
	defer os.RemoveAll(stateDir)
	statePath := stateDir + "/dist-state.json"

	cport, w1port, w2port := freePort(), freePort(), freePort()
	cbase := fmt.Sprintf("http://127.0.0.1:%d", cport)
	coordArgs := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", cport),
		"-dist-ttl", "30s",
		"-dist-breaker-failures", "2",
		"-dist-breaker-cooldown", "120s",
		"-dist-state", statePath,
		"-quiet",
	}

	// Life 1 of the coordinator injects a frame-ship error (retried in
	// place) and dial delays (absorbed); worker 2 kills itself on its second
	// eval (after=1), mid-request.
	coord := spawn("coordinator", hyperd, append(coordArgs,
		"-fault", "frame_ship:error:count=1,worker_dial:delay:ms=20:count=8")...)
	defer func() { coord.stop() }()
	waitHealthy(cbase, 30*time.Second)

	w1 := spawn("worker1", hyperd,
		"-worker", "-coordinator", cbase,
		"-addr", fmt.Sprintf("127.0.0.1:%d", w1port),
		"-worker-id", "chaos-w1",
		"-heartbeat", "500ms", "-drain-timeout", "10s", "-quiet")
	defer w1.stop()
	w2 := spawn("worker2", hyperd,
		"-worker", "-coordinator", cbase,
		"-addr", fmt.Sprintf("127.0.0.1:%d", w2port),
		"-worker-id", "chaos-w2",
		"-heartbeat", "500ms", "-quiet",
		"-fault", "eval:kill:after=1")
	defer w2.stop()
	waitWorkers(cbase, 2, 30*time.Second)

	createSessions(cbase)

	// Local baselines for every golden, before any distributed run touches a
	// worker (worker 2's kill budget must not be spent early).
	whatifBase := map[string][]byte{}
	for _, g := range whatifGoldens {
		var r whatIfResp
		status, payload := post(cbase, "/v1/sessions/"+g.session+"/whatif", map[string]any{
			"query": g.query, "placement": "local",
		})
		if status != http.StatusOK {
			fatalf("%s baseline: status %d: %s", g.name, status, payload)
		}
		whatifBase[g.name] = stableBytes(payload, &r.stable)
	}
	count := whatifGoldens[0] // german-count drives the failure choreography
	countEval := func(step string) whatIfResp {
		var r whatIfResp
		status, payload := post(cbase, "/v1/sessions/"+count.session+"/whatif", map[string]any{
			"query": count.query, "placement": "workers",
		})
		if status != http.StatusOK {
			fatalf("%s: status %d: %s", step, status, payload)
		}
		if err := json.Unmarshal(payload, &r); err != nil {
			fatalf("%s: %v", step, err)
		}
		if got := stableBytes(payload, &r.stable); !bytes.Equal(got, whatifBase[count.name]) {
			fatalf("%s diverges from local baseline:\n  chaos: %s\n  local: %s", step, got, whatifBase[count.name])
		}
		return r
	}

	// Query 1: the injected frame-ship error and dial delays are absorbed by
	// the retry policy — full fleet, not degraded.
	r := countEval("chaos query 1 (absorbed faults)")
	if r.Degraded {
		fatalf("query 1 reported degraded (%s); retried faults alone must not degrade", r.DegradedReason)
	}
	if r.RemoteWorkers != 2 {
		fatalf("query 1 used %d workers, want 2", r.RemoteWorkers)
	}
	if st := getDistStats(cbase); st.Retries == 0 {
		fatalf("query 1 stats report no retries despite the injected ship failure: %+v", st)
	}
	fmt.Fprintf(os.Stderr, "distsmoke: chaos query 1 ok — injected faults absorbed, not degraded\n")

	// Query 2: worker 2's kill rule fires mid-eval (os.Exit inside the
	// handler). Shards requeue onto worker 1; the answer is unchanged and the
	// response says degraded=worker_lost.
	r = countEval("chaos query 2 (worker killed mid-eval)")
	if !r.Degraded || r.DegradedReason != "worker_lost" {
		fatalf("query 2 degraded=%v reason=%q, want true/worker_lost", r.Degraded, r.DegradedReason)
	}
	if st := getDistStats(cbase); st.WorkersQuarantined != 0 || st.Requeues == 0 {
		fatalf("query 2 stats: %+v (want 0 quarantined with K=2, >0 requeues)", st)
	}
	fmt.Fprintf(os.Stderr, "distsmoke: chaos query 2 ok — worker death requeued, degraded=worker_lost\n")

	// Query 3: the second consecutive failure (dial refused — the process is
	// gone) trips the breaker: worker 2 is quarantined.
	r = countEval("chaos query 3 (second failure quarantines)")
	if !r.Degraded || r.DegradedReason != "worker_lost" {
		fatalf("query 3 degraded=%v reason=%q, want true/worker_lost", r.Degraded, r.DegradedReason)
	}
	if st := getDistStats(cbase); st.WorkersQuarantined != 1 || st.WorkersLost != 1 {
		fatalf("query 3 stats: %+v (want 1 quarantined, 1 lost)", st)
	}

	// Query 4: the quarantined worker is skipped without a dial.
	r = countEval("chaos query 4 (quarantine skip)")
	if !r.Degraded || r.DegradedReason != "quarantine" {
		fatalf("query 4 degraded=%v reason=%q, want true/quarantine", r.Degraded, r.DegradedReason)
	}
	fmt.Fprintf(os.Stderr, "distsmoke: chaos queries 3-4 ok — breaker opened, quarantine skips the dead worker\n")

	// The resilience metrics must tell the same story.
	cs := scrapeMetrics("coordinator", cbase)
	requireSeries("coordinator", cs,
		"hyper_dist_retries_total",
		"hyper_dist_breaker_state",
		"hyper_dist_workers_restored_total",
		"hyper_server_panics_total",
	)
	if cs["hyper_dist_breaker_state"] != 1 {
		fatalf("hyper_dist_breaker_state = %v, want 1 open circuit", cs["hyper_dist_breaker_state"])
	}
	if cs["hyper_dist_retries_total"] < 1 {
		fatalf("hyper_dist_retries_total = %v, want >= 1", cs["hyper_dist_retries_total"])
	}
	faults := 0.0
	for series, v := range cs {
		if strings.HasPrefix(series, "hyper_fault_injected_total{") {
			faults += v
		}
	}
	if faults < 2 {
		fatalf("coordinator hyper_fault_injected_total sums to %v, want >= 2 (one ship error + dial delays)", faults)
	}

	// Crash the coordinator (SIGKILL: no drain, no goodbye) and restart it on
	// the same port from the same state file, fault-free this time. It must
	// re-adopt the fleet: both workers registered without a Register call,
	// the quarantine still standing.
	fmt.Fprintf(os.Stderr, "distsmoke: SIGKILLing the coordinator and restarting from %s\n", statePath)
	coord.sigkill()
	coord = spawn("coordinator-2", hyperd, coordArgs...)
	waitHealthy(cbase, 30*time.Second)
	st := getDistStats(cbase)
	if st.RestoredWorkers != 2 || st.WorkersRegistered != 2 {
		fatalf("restarted coordinator stats: %+v (want 2 restored, 2 registered)", st)
	}
	if st.WorkersQuarantined != 1 || st.WorkersAlive != 1 {
		fatalf("restarted coordinator stats: %+v (quarantine must survive the restart)", st)
	}

	// Sessions are in-memory; recreate them. The frames they rebuild are
	// content-addressed, so the restored shipped-frame ledger must prevent
	// any re-ship to worker 1.
	createSessions(cbase)
	r = countEval("post-restart query (re-adopted fleet)")
	if !r.Degraded || r.DegradedReason != "quarantine" {
		fatalf("post-restart degraded=%v reason=%q, want true/quarantine", r.Degraded, r.DegradedReason)
	}
	if st := getDistStats(cbase); st.FramesShipped != 0 {
		fatalf("restarted coordinator re-shipped %d frames; the persisted ledger should have prevented all", st.FramesShipped)
	}
	fmt.Fprintf(os.Stderr, "distsmoke: restart ok — fleet re-adopted from state, quarantine intact, zero frames re-shipped\n")

	// Every golden must still match its pre-crash local baseline, distributed
	// over the surviving worker.
	for _, g := range whatifGoldens {
		var r whatIfResp
		status, payload := post(cbase, "/v1/sessions/"+g.session+"/whatif", map[string]any{
			"query": g.query, "placement": "workers",
		})
		if status != http.StatusOK {
			fatalf("%s (post-restart): status %d: %s", g.name, status, payload)
		}
		if err := json.Unmarshal(payload, &r); err != nil {
			fatalf("%s (post-restart): %v", g.name, err)
		}
		if got := stableBytes(payload, &r.stable); !bytes.Equal(got, whatifBase[g.name]) {
			fatalf("%s (post-restart) diverges from pre-crash local baseline:\n  got:   %s\n  local: %s", g.name, got, whatifBase[g.name])
		}
		if !r.Degraded || r.DegradedReason != "quarantine" {
			fatalf("%s (post-restart) degraded=%v reason=%q, want true/quarantine", g.name, r.Degraded, r.DegradedReason)
		}
		fmt.Fprintf(os.Stderr, "distsmoke: %-14s ok post-restart (degraded=quarantine, bytes == local)\n", g.name)
	}
	// The surviving worker drains and exits cleanly on SIGTERM.
	w1.stopClean()
	fmt.Fprintf(os.Stderr, "distsmoke: worker1 drained and exited cleanly on SIGTERM\n")

	fmt.Println("distsmoke: CHAOS PASS — faults injected, worker killed, coordinator restarted; every answer bit-identical, every degradation reported")
}
