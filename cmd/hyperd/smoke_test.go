//go:build smoke

// The process-level tests: what only a real hyperd binary, real worker
// processes and real signals can show. Everything else the daemon does is
// held in-process (internal/dist, internal/server); these two tests keep
// flag parsing and worker-mode wiring, registration and heartbeats between
// processes, -fault rules parsed by the binary (a kill that is an os.Exit
// inside a handler), a SIGKILLed coordinator restarting from -dist-state on
// its port, and SIGTERM drains that exit 0. Every answer they obtain goes
// into one internal/histcheck history, checked against a fresh library
// session per observed version.
//
//	go test -tags smoke -count=1 -v ./cmd/hyperd
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hyper"
	"hyper/internal/dataset"
	"hyper/internal/histcheck"
	"hyper/internal/server"
)

var hyperdBin string // built once by TestMain

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hyperd-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hyperdBin = filepath.Join(dir, "hyperd")
	if out, err := exec.Command("go", "build", "-o", hyperdBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building hyperd: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemon is one spawned hyperd process, in a process group of its own.
type daemon struct {
	name, base string
	cmd        *exec.Cmd
	exited     chan struct{} // closed once Wait returned; err is set before
	err        error
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// launch starts hyperd on port and waits until it answers /healthz. However
// the test leaves it, cleanup kills its process group, reaps it and requires
// the group to be empty: no run leaves a process behind.
func launch(t *testing.T, name string, port int, args ...string) *daemon {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{name: name, base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(hyperdBin, append([]string{"-addr", addr, "-quiet"}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, os.Stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	pgid := d.cmd.Process.Pid
	go func() { d.err = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		<-d.exited
		if err := syscall.Kill(-pgid, 0); err != syscall.ESRCH {
			t.Errorf("%s: process group %d is not gone after cleanup: %v", name, pgid, err)
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case <-d.exited:
			t.Fatalf("%s exited before becoming healthy: %v", name, d.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s did not become healthy within 30s", name)
		}
	}
}

// worker launches a worker process registered with coord.
func worker(t *testing.T, coord *daemon, id string, args ...string) *daemon {
	t.Helper()
	return launch(t, id, freePort(t), append([]string{
		"-worker", "-coordinator", coord.base, "-worker-id", id, "-heartbeat", "200ms"}, args...)...)
}

// terminate SIGTERMs the process and requires the graceful exit: status 0.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.err != nil {
			t.Fatalf("%s did not exit cleanly on SIGTERM: %v", d.name, d.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit within 30s of SIGTERM", d.name)
	}
}

// kill SIGKILLs the process: no drain, no deregistration — a crash.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

func call(t *testing.T, method, url string, body, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d, %v: %s", method, url, resp.StatusCode, err, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("%s %s: %v (%s)", method, url, err, raw)
	}
}

func distStats(t *testing.T, coord *daemon) server.DistStats {
	t.Helper()
	var stats server.StatsResponse
	call(t, "GET", coord.base+"/v1/stats", nil, &stats)
	return stats.Dist
}

// waitFor polls cond (ten seconds at most).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// stable is the placement-independent part of a what-if answer, decoded from
// the wire shape; its JSON encoding is the digest the history records.
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

func (s stable) digest() string {
	if len(s.Backdoor) == 0 {
		s.Backdoor = nil // the wire omits an empty set
	}
	raw, _ := json.Marshal(s)
	return string(raw)
}

// answer is a what-if response: the digest's fields and the execution
// diagnostics the tests assert.
type answer struct {
	stable
	Snapshot       int64  `json:"snapshot"`
	Placement      string `json:"placement"`
	RemoteWorkers  int    `json:"remote_workers"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason"`
}

// goldens are the queries of the history, by the label its records carry.
var goldens = map[string]struct{ session, query string }{
	"german-count": {"german", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`},
	"german-for":   {"german", `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`},
	"german-avg":   {"german", `USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`},
	"toy-avg": {"toy", `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand,
		AVG(T2.Rating) AS Rtng
		FROM Product AS T1, Review AS T2
		WHERE T1.PID = T2.PID
		GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand)
		WHEN Brand = 'Asus'
		UPDATE(Price) = 1.1 * PRE(Price)
		OUTPUT AVG(POST(Rtng))
		FOR PRE(Category) = 'Laptop'`},
	"loans": {"grow", `USE Loans WHEN Savings = 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`},
}

// sessionOptions are the evaluation options each session is created with
// (german's granularity spreads its plan over both workers: 5000 rows / 256).
var sessionOptions = map[string]hyper.Options{
	"toy":    {Seed: 7},
	"german": {Seed: 7, ShardRows: 256},
	"grow":   {Seed: 7, ShardRows: 256},
}

const loansHeader = "Status,Savings,Credit\n"

func loansRows(lo, hi int) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i%4, (i/2)%3, (i+i/5)%2)
	}
	return b.String()
}

// client drives one coordinator and records every exchange.
type client struct {
	t     *testing.T
	coord *daemon
	log   *histcheck.Log
}

func (c *client) createSessions(names ...string) {
	c.t.Helper()
	for _, name := range names {
		o := sessionOptions[name]
		req := server.CreateSessionRequest{Name: name, Dataset: name,
			Options: &server.SessionOptions{Seed: o.Seed, ShardRows: o.ShardRows}}
		if name == "grow" {
			req.Dataset = ""
			req.CSV = &server.CSVDatabase{
				Tables: []server.CSVTable{{Name: "Loans", Data: loansHeader + loansRows(0, 600)}},
				Model:  &server.CSVModel{Edges: [][2]string{{"Loans.Status", "Loans.Credit"}, {"Loans.Savings", "Loans.Credit"}}},
			}
		}
		var info server.SessionInfo
		call(c.t, "POST", c.coord.base+"/v1/sessions", req, &info)
	}
}

// whatIf runs golden at placement, pinned to version pin (0 = the head).
func (c *client) whatIf(golden, placement string, pin int64) answer {
	c.t.Helper()
	g := goldens[golden]
	var a answer
	start := time.Now()
	call(c.t, "POST", c.coord.base+"/v1/sessions/"+g.session+"/whatif",
		server.QueryRequest{Query: g.query, Placement: placement, Snapshot: pin}, &a)
	c.log.Add(histcheck.Record{
		Proc: "client", Session: g.session, Op: histcheck.Read, Query: golden, Pin: pin, Version: a.Snapshot,
		Placement: placement, Degraded: a.Degraded, Digest: a.digest(), Start: start, End: time.Now(),
	})
	return a
}

func (c *client) appendLoans(lo, hi int) server.AppendResponse {
	c.t.Helper()
	payload := loansHeader + loansRows(lo, hi)
	var resp server.AppendResponse
	start := time.Now()
	call(c.t, "POST", c.coord.base+"/v1/sessions/grow/rows",
		server.AppendRequest{Tables: []server.AppendTable{{Name: "Loans", Data: payload}}}, &resp)
	c.log.Add(histcheck.Record{Proc: "client", Session: "grow", Op: histcheck.Append,
		Version: resp.Version, Payload: payload, Start: start, End: time.Now()})
	return resp
}

// check holds the recorded history to the specification. The oracle is a
// fresh library session (version 0, no cache, one shard worker) over the
// dataset builder's rows or, for the grown session, the creation rows plus
// the history's own append payloads up to the version.
func (c *client) check() {
	c.t.Helper()
	recs := c.log.Records()
	oracle := func(session, golden string, version int64) (string, error) {
		var db *hyper.Database
		var model *hyper.CausalModel
		if session == "grow" {
			csv := loansHeader + loansRows(0, 600)
			for _, r := range recs {
				if r.Op == histcheck.Append && r.Session == session && r.Version <= version {
					csv += strings.TrimPrefix(r.Payload, loansHeader)
				}
			}
			rel, err := hyper.ReadCSVKeyed("Loans", strings.NewReader(csv), nil)
			if err != nil {
				return "", err
			}
			db, model = hyper.NewDatabase(), hyper.NewCausalModel()
			if err := db.Add(rel); err != nil {
				return "", err
			}
			model.AddEdge("Loans.Status", "Loans.Credit")
			model.AddEdge("Loans.Savings", "Loans.Credit")
		} else {
			b, err := dataset.Lookup(session)
			if err != nil {
				return "", err
			}
			db, model = b.Build(1, 7)
		}
		sess := hyper.NewSession(db, model)
		sess.SetOptions(sessionOptions[session].WithShards(1))
		r, err := sess.WhatIf(goldens[golden].query)
		if err != nil {
			return "", err
		}
		return stable{
			Value: r.Value, Sum: r.Sum, Count: r.Count, Mode: r.Mode.String(), Estimator: r.EstimatorUsed,
			Backdoor: r.Backdoor, Blocks: r.Blocks, Disjuncts: r.Disjuncts, ViewRows: r.ViewRows,
			UpdatedRows: r.UpdatedRows, SampledRows: r.SampledRows, ShardPlan: r.ShardPlan,
		}.digest(), nil
	}
	if vs := histcheck.Check(recs, oracle); len(vs) > 0 {
		path, err := c.log.DumpFile(c.t.Name())
		for _, v := range vs {
			c.t.Error(v)
		}
		c.t.Fatalf("%d violations of the specification; history written to %s (%v)", len(vs), path, err)
	}
	c.t.Logf("%d recorded operations hold the snapshot-isolation specification", len(recs))
}

// TestSmoke: a coordinator and two worker processes, every golden at both
// placements, an append while the workers hold the old frame, leases kept
// alive by heartbeats alone, and three SIGTERM exits with status 0.
func TestSmoke(t *testing.T) {
	coord := launch(t, "coordinator", freePort(t), "-dist-ttl", "2s")
	w1, w2 := worker(t, coord, "smoke-w1"), worker(t, coord, "smoke-w2")
	waitFor(t, "two live workers", func() bool { return distStats(t, coord).WorkersAlive == 2 })
	registered := time.Now()

	c := &client{t: t, coord: coord, log: &histcheck.Log{}}
	c.createSessions("toy", "german", "grow")
	for golden := range goldens {
		a := c.whatIf(golden, "workers", 0)
		if a.Placement != "workers" || a.RemoteWorkers < 1 || a.Degraded {
			t.Fatalf("%s: placement=%q remote_workers=%d degraded=%v (%s) — the workers were not used",
				golden, a.Placement, a.RemoteWorkers, a.Degraded, a.DegradedReason)
		}
		c.whatIf(golden, "local", 0)
	}

	// Both workers hold version 1's frame; the append reaches them as a
	// delta the first time version 2 is asked of them.
	shipped := distStats(t, coord).FramesShipped
	if resp := c.appendLoans(600, 1100); resp.Version != 2 || resp.Rows != 1100 {
		t.Fatalf("append published %+v, want version 2 with 1100 rows", resp)
	}
	pre := c.whatIf("loans", "workers", 1)
	c.whatIf("loans", "local", 1)
	head := c.whatIf("loans", "workers", 0)
	c.whatIf("loans", "local", 0)
	if head.digest() == pre.digest() {
		t.Fatal("the append did not change the head answer — the pinned reads show nothing")
	}
	if got := distStats(t, coord).FramesShipped - shipped; got != 2 {
		t.Fatalf("version 2 cost %d frame ships, want one delta per worker", got)
	}

	// Past the lease the workers registered with, they are alive only if
	// their heartbeats arrived.
	time.Sleep(time.Until(registered.Add(2500 * time.Millisecond)))
	if a := c.whatIf("german-count", "workers", 0); a.RemoteWorkers != 2 || a.Degraded {
		t.Fatalf("after the first lease: remote_workers=%d degraded=%v (%s), want the full fleet", a.RemoteWorkers, a.Degraded, a.DegradedReason)
	}
	if st := distStats(t, coord); st.WorkersAlive != 2 || st.RemoteEvals == 0 || st.RemoteShards == 0 || st.WorkersLost != 0 {
		t.Fatalf("coordinator gauges: %+v", st.Stats)
	}
	c.check()

	for _, d := range []*daemon{w1, w2, coord} {
		d.terminate(t)
	}
}

// TestChaos: one -fault rule at each of the five injection points, a worker
// that kills itself inside its second eval, the breaker, a coordinator crash
// and restart from its state file, a drain — the degradation asserted step
// by step, every answer into the history.
func TestChaos(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "dist-state.json")
	port := freePort(t)
	coordArgs := []string{"-dist-ttl", "30s", "-dist-breaker-failures", "2", "-dist-breaker-cooldown", "120s", "-dist-state", statePath}
	// Life 1: the first state write fails, the first frame ship fails (both
	// retried or repeated in place) and the first eight dials are slow.
	coord := launch(t, "coordinator", port, append(coordArgs,
		"-fault", "persist:error:count=1,frame_ship:error:count=1,worker_dial:delay:ms=20:count=8")...)
	w1 := worker(t, coord, "chaos-w1", "-drain-timeout", "10s", "-fault", "heartbeat:error:count=1")
	worker(t, coord, "chaos-w2", "-fault", "eval:kill:after=1")
	waitFor(t, "two live workers", func() bool { return distStats(t, coord).WorkersAlive == 2 })

	c := &client{t: t, coord: coord, log: &histcheck.Log{}}
	c.createSessions("toy", "german")
	// Local answers first: worker 2's kill budget is not to be spent early.
	for golden, g := range goldens {
		if g.session != "grow" {
			c.whatIf(golden, "local", 0)
		}
	}
	step := func(name, wantReason string) answer {
		t.Helper()
		a := c.whatIf("german-count", "workers", 0)
		if a.Degraded != (wantReason != "") || a.DegradedReason != wantReason {
			t.Fatalf("%s: degraded=%v reason=%q, want reason %q", name, a.Degraded, a.DegradedReason, wantReason)
		}
		return a
	}

	if a := step("query 1 (ship error and slow dials absorbed by the retry policy)", ""); a.RemoteWorkers != 2 {
		t.Fatalf("query 1 used %d workers, want 2", a.RemoteWorkers)
	}
	if st := distStats(t, coord); st.Retries == 0 || st.PersistErrors != 1 || st.FaultsInjected < 3 {
		t.Fatalf("after query 1: %+v (want retries, one persist error, >= 3 faults fired)", st.Stats)
	}
	step("query 2 (worker 2 exits inside its eval; shards requeue)", "worker_lost")
	if st := distStats(t, coord); st.WorkersQuarantined != 0 || st.Requeues == 0 {
		t.Fatalf("after query 2: %+v (want requeues, no quarantine at K=2)", st.Stats)
	}
	step("query 3 (the dial is refused: second failure opens the breaker)", "worker_lost")
	if st := distStats(t, coord); st.WorkersQuarantined != 1 || st.WorkersLost != 1 {
		t.Fatalf("after query 3: %+v (want 1 quarantined, 1 lost)", st.Stats)
	}
	step("query 4 (the quarantined worker is skipped without a dial)", "quarantine")

	// Worker 1 lost one heartbeat to its own rule and kept its lease.
	waitFor(t, "worker 1's heartbeat fault", func() bool {
		resp, err := http.Get(w1.base + "/metrics")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return strings.Contains(string(raw), `hyper_fault_injected_total{point="heartbeat",mode="error"} 1`)
	})

	// Crash the coordinator and restart it, fault-free, on the same port from
	// the same state file: the fleet is re-adopted without a registration and
	// the quarantine stands.
	coord.kill()
	coord = launch(t, "coordinator-2", port, coordArgs...)
	c.coord = coord
	if st := distStats(t, coord); st.RestoredWorkers != 2 || st.WorkersRegistered != 2 || st.WorkersQuarantined != 1 || st.WorkersAlive != 1 {
		t.Fatalf("restarted coordinator: %+v (want 2 restored and registered, 1 quarantined, 1 alive)", st.Stats)
	}
	// Sessions are in memory; recreated, their frames have the addresses the
	// restored ledger already holds for worker 1 — german's was shipped in
	// life 1 and is not shipped again.
	c.createSessions("toy", "german")
	step("the first query after the restart", "quarantine")
	if st := distStats(t, coord); st.FramesShipped != 0 {
		t.Fatalf("the restarted coordinator re-shipped %d frames; the persisted ledger should have prevented all", st.FramesShipped)
	}
	for golden, g := range goldens {
		if g.session == "grow" {
			continue
		}
		if a := c.whatIf(golden, "workers", 0); !a.Degraded || a.DegradedReason != "quarantine" {
			t.Fatalf("%s after the restart: degraded=%v reason=%q, want quarantine", golden, a.Degraded, a.DegradedReason)
		}
	}
	c.check()

	w1.terminate(t) // drains, deregisters, exits 0
	coord.terminate(t)
}
