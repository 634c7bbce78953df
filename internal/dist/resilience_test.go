package dist

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"hyper/internal/engine"
	"hyper/internal/fault"
	"hyper/internal/hyperql"
)

const chaosQuery = `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`

// chaosBaseline computes the local single-process answer the distributed
// runs must reproduce bit for bit.
func chaosBaseline(t *testing.T, opts engine.Options) string {
	t.Helper()
	db, model := distDataset(t, "german")
	q, err := hyperql.ParseWhatIf(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvaluateContext(context.Background(), db, model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g17(want.Value)
}

// TestCoordinatorStateReAdoption persists a fleet (registry, shipped
// frames, one quarantined worker), builds a second coordinator from the
// state file, and asserts it re-adopts everything: both workers present
// without re-registration, the quarantine still in force, and a query that
// runs without re-shipping a single frame.
func TestCoordinatorStateReAdoption(t *testing.T) {
	opts := engine.Options{Seed: 7, ShardRows: 128}
	want := chaosBaseline(t, opts)
	statePath := filepath.Join(t.TempDir(), "dist-state.json")
	cfg := CoordinatorConfig{
		StatePath:       statePath,
		BreakerFailures: 1,
		BreakerCooldown: time.Hour, // quarantine must outlive the test
		MaxAttempts:     1,
	}

	w1, w2 := newTestWorker(t), newTestWorker(t)
	c1, _ := newTestCoordinatorCfg(t, cfg, w1, w2)
	db, model := distDataset(t, "german")
	frame := NewFrame(db, model)
	if _, err := c1.EvaluateWhatIf(context.Background(), EvalSpec{
		DB: db, Model: model, Frame: frame, Query: mustParse(t, chaosQuery), Options: opts,
	}); err != nil {
		t.Fatal(err)
	}
	w2.killEval.Store(true)
	if _, err := c1.EvaluateWhatIf(context.Background(), EvalSpec{
		DB: db, Model: model, Frame: frame, Query: mustParse(t, chaosQuery), Options: opts,
	}); err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.FramesShipped != 2 || st.WorkersQuarantined != 1 {
		t.Fatalf("pre-restart stats: %+v (want 2 frames shipped, 1 quarantined)", st)
	}

	// "Restart": a fresh coordinator adopts the fleet purely from the state
	// file — no Register calls.
	c2, _ := newTestCoordinatorCfg(t, cfg)
	st := c2.Stats()
	if st.RestoredWorkers != 2 || st.WorkersRegistered != 2 {
		t.Fatalf("post-restart stats: %+v (want 2 restored, 2 registered)", st)
	}
	if st.WorkersQuarantined != 1 || st.WorkersAlive != 1 {
		t.Fatalf("post-restart stats: %+v (quarantine must survive the restart)", st)
	}

	w2.killEval.Store(false) // alive again, but still quarantined
	res, err := c2.EvaluateWhatIf(context.Background(), EvalSpec{
		DB: db, Model: model, Frame: frame, Query: mustParse(t, chaosQuery), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g17(res.Value) != want {
		t.Fatalf("post-restart value %s != local %s", g17(res.Value), want)
	}
	if !res.Degraded || res.DegradedReason != "quarantine" {
		t.Fatalf("degraded=%v reason=%q, want true/quarantine", res.Degraded, res.DegradedReason)
	}
	if got := c2.Stats().FramesShipped; got != 0 {
		t.Fatalf("restarted coordinator re-shipped %d frames; the persisted shipped set should have prevented all", got)
	}
	if got := w1.puts.Load(); got != 1 {
		t.Fatalf("worker 1 received %d frame ships across both coordinator lives, want 1", got)
	}

	// A state file from a coordinator that still recorded its in-flight
	// assignments loads the same way: the fleet is re-adopted, the
	// assignments array is ignored.
	t.Run("assignments array", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "dist-state.json")
		now := time.Now().UTC().Format(time.RFC3339)
		doc := `{"saved_at": "` + now + `",
			"workers": [
				{"id": "w1", "url": "http://127.0.0.1:1", "frames": ["f1", "f2"]},
				{"id": "w2", "url": "http://127.0.0.1:2", "fails": 1, "open": true, "opened_at": "` + now + `"}
			],
			"assignments": [{"worker": "w1", "path": "/dist/v1/eval", "shards": [0, 1, 2]}]}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCoordinator(CoordinatorConfig{StatePath: path, BreakerCooldown: time.Hour})
		if st := c.Stats(); st.RestoredWorkers != 2 || st.WorkersRegistered != 2 || st.WorkersQuarantined != 1 {
			t.Fatalf("stats %+v, want 2 restored and registered, 1 quarantined", st)
		}
		if infos := c.WorkerInfos(); infos[0].ID != "w1" || infos[0].Frames != 2 {
			t.Fatalf("workers %+v, want w1 holding its 2 shipped frames", infos)
		}
		if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
			t.Fatalf("the state file was moved aside as corrupt: %v", err)
		}
	})
}

// TestCorruptStateFileMovedAside: an unreadable state file must not be
// silently destroyed — it is renamed for inspection and the coordinator
// starts fresh.
func TestCorruptStateFileMovedAside(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "dist-state.json")
	if err := os.WriteFile(statePath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(CoordinatorConfig{StatePath: statePath})
	if st := c.Stats(); st.RestoredWorkers != 0 || st.WorkersRegistered != 0 {
		t.Fatalf("coordinator adopted state from a corrupt file: %+v", st)
	}
	if _, err := os.Stat(statePath + ".corrupt"); err != nil {
		t.Fatalf("corrupt state file was not moved aside: %v", err)
	}
}

// TestChaosInjectedFaults drives a distributed evaluation through the full
// injected-failure gauntlet under -race: a frame-ship error and an injected
// worker 500 (both absorbed by the retry policy — the response is NOT
// degraded), then a worker death (requeue + degradation), repeated failure
// (quarantine), all while every answer stays bit-identical to the local
// baseline and no goroutines leak.
func TestChaosInjectedFaults(t *testing.T) {
	opts := engine.Options{Seed: 7, ShardRows: 128} // 8 plan shards
	want := chaosBaseline(t, opts)

	before := runtime.NumGoroutine()
	coordFaults, err := fault.Parse("frame_ship:error:count=1,worker_dial:delay:ms=1:count=4", 7)
	if err != nil {
		t.Fatal(err)
	}
	evalFaults, err := fault.Parse("eval:error:count=1", 7)
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := newTestWorker(t), newTestWorker(t)
	w2.w.cfg.Fault = evalFaults // first eval on w2 answers an injected 500
	c, client := newTestCoordinatorCfg(t, CoordinatorConfig{
		BreakerFailures: 2,
		BreakerCooldown: time.Hour,
		Fault:           coordFaults,
	}, w1, w2)

	db, model := distDataset(t, "german")
	frame := NewFrame(db, model)
	eval := func() *engine.Result {
		t.Helper()
		res, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
			DB: db, Model: model, Frame: frame, Query: mustParse(t, chaosQuery), Options: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if g17(res.Value) != want {
			t.Fatalf("chaos value %s != local %s", g17(res.Value), want)
		}
		return res
	}

	// Query 1: the injected ship failure and worker 500 are retried in
	// place — full fleet, not degraded.
	res := eval()
	if res.Degraded {
		t.Fatalf("retried-only query reported degraded (%s); retries alone must not degrade", res.DegradedReason)
	}
	if res.RemoteWorkers != 2 {
		t.Fatalf("RemoteWorkers %d, want 2", res.RemoteWorkers)
	}
	st := c.Stats()
	if st.Retries < 2 {
		t.Fatalf("retries %d, want >= 2 (one ship, one eval)", st.Retries)
	}
	if coordFaults.Fired() < 2 || evalFaults.Fired() != 1 {
		t.Fatalf("fault firings: coordinator %d, worker %d", coordFaults.Fired(), evalFaults.Fired())
	}

	// Query 2: w2 dies mid-eval — requeue onto w1, degraded, fails=1 of 2.
	w2.killEval.Store(true)
	res = eval()
	if !res.Degraded || res.DegradedReason != "worker_lost" {
		t.Fatalf("degraded=%v reason=%q, want true/worker_lost", res.Degraded, res.DegradedReason)
	}
	if st := c.Stats(); st.WorkersQuarantined != 0 {
		t.Fatalf("quarantined after 1 failure with K=2: %+v", st)
	}

	// Query 3: second consecutive failure quarantines w2.
	res = eval()
	if !res.Degraded || res.DegradedReason != "worker_lost" {
		t.Fatalf("degraded=%v reason=%q, want true/worker_lost", res.Degraded, res.DegradedReason)
	}
	if st := c.Stats(); st.WorkersQuarantined != 1 || st.WorkersLost != 1 {
		t.Fatalf("stats after K failures: %+v (want 1 quarantined, 1 lost)", st)
	}

	// Query 4: w2 skipped without being dialled — degraded by quarantine.
	res = eval()
	if !res.Degraded || res.DegradedReason != "quarantine" {
		t.Fatalf("degraded=%v reason=%q, want true/quarantine", res.Degraded, res.DegradedReason)
	}
	w1.ts.Close()
	w2.ts.Close()
	client.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}
