package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/httpapi"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
	"hyper/internal/shard"
)

func g17(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

func distDataset(t testing.TB, name string) (*relation.Database, *causal.Model) {
	t.Helper()
	switch name {
	case "toy":
		return dataset.Toy()
	case "german":
		g := dataset.GermanSyn(1000, 7)
		return g.DB, g.Model
	default:
		t.Fatalf("unknown dataset %q", name)
		return nil, nil
	}
}

// testWorker is one in-process worker behind a real HTTP listener, with
// request counters and a kill switch that aborts its next eval mid-request.
type testWorker struct {
	w        *Worker
	ts       *httptest.Server
	puts     atomic.Int64
	evals    atomic.Int64
	killEval atomic.Bool
}

func newTestWorker(t *testing.T) *testWorker {
	t.Helper()
	tw := &testWorker{w: NewWorker(WorkerConfig{})}
	inner := tw.w.Handler()
	tw.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPut:
			tw.puts.Add(1)
		case r.URL.Path == pathEval:
			tw.evals.Add(1)
			if tw.killEval.Load() {
				// Die mid-request: the connection is severed without a
				// response, exactly what a killed worker process looks like
				// to the coordinator.
				panic(http.ErrAbortHandler)
			}
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(tw.ts.Close)
	return tw
}

func newTestCoordinator(t *testing.T, workers ...*testWorker) (*Coordinator, *http.Client) {
	t.Helper()
	return newTestCoordinatorCfg(t, CoordinatorConfig{}, workers...)
}

func newTestCoordinatorCfg(t *testing.T, cfg CoordinatorConfig, workers ...*testWorker) (*Coordinator, *http.Client) {
	t.Helper()
	client := &http.Client{}
	t.Cleanup(client.CloseIdleConnections)
	cfg.TTL = time.Minute
	cfg.Client = client
	c := NewCoordinator(cfg)
	for i, tw := range workers {
		c.Register("w"+strconv.Itoa(i+1), tw.ts.URL)
	}
	return c, client
}

// TestDistributedEvalGolden pins the distributed path against the same
// golden constants the engine parity tests pin for the single-process path:
// 2 real HTTP workers, each rebuilding the database from the shipped frame,
// must reproduce the pinned value to the last bit and agree with a local
// evaluation on every result bit. Workers carry no plan cache, and need none:
// a frame's first direct POST /dist/v1/eval shows the worker computing the
// WHEN set through the planner's pushdown (a plan stage in its meter and
// trace) and selecting the coordinator's number of rows, and the repeat
// finds that preparation in the frame's cache (a prepare stage with
// cache_hit and no plan stage) and selects the same rows.
func TestDistributedEvalGolden(t *testing.T) {
	const toyQuery = `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand,
			AVG(T2.Rating) AS Rtng
			FROM Product AS T1, Review AS T2
			WHERE T1.PID = T2.PID
			GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand)
			WHEN Brand = 'Asus'
			UPDATE(Price) = 1.1 * PRE(Price)
			OUTPUT AVG(POST(Rtng))
			FOR PRE(Category) = 'Laptop'`
	goldens := []struct {
		name, ds, query, value string
		pushed                 int // WHEN conjuncts the worker must run as columnar scans
	}{
		{"german-freq-count", "german", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, "875.68587543540139", 0},
		{"german-when", "german", `USE German WHEN Sex = 1 AND Age = 2 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, "545.88571428571436", 2},
		{"toy-avg-forest", "toy", toyQuery, "2.6302810387072708", 1},
	}
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			w1, w2 := newTestWorker(t), newTestWorker(t)
			c, client := newTestCoordinator(t, w1, w2)
			db, model := distDataset(t, g.ds)
			frame, opts := NewFrame(db, model), engine.Options{Seed: 7}
			res, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
				DB: db, Model: model, Frame: frame, Query: mustParse(t, g.query), Options: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := g17(res.Value); got != g.value {
				t.Fatalf("distributed value %s != pinned golden %s", got, g.value)
			}
			if res.Placement != "workers" {
				t.Fatalf("placement %q, want workers", res.Placement)
			}
			q, err := hyperql.ParseWhatIf(g.query)
			if err != nil {
				t.Fatal(err)
			}
			local, err := engine.EvaluateContext(context.Background(), db, model, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if g17(res.Value) != g17(local.Value) || g17(res.Sum) != g17(local.Sum) || g17(res.Count) != g17(local.Count) ||
				res.UpdatedRows != local.UpdatedRows {
				t.Fatalf("workers %s/%s/%s S=%d != local %s/%s/%s S=%d", g17(res.Value), g17(res.Sum), g17(res.Count), res.UpdatedRows,
					g17(local.Value), g17(local.Sum), g17(local.Count), local.UpdatedRows)
			}
			if local.PlanPushed != g.pushed {
				t.Fatalf("local evaluation pushed %d conjuncts, want %d", local.PlanPushed, g.pushed)
			}

			// The worker side of the same query, asked directly of a worker
			// that holds the frame but has evaluated nothing on it.
			id, frameBody, err := frame.Payload()
			if err != nil {
				t.Fatal(err)
			}
			w3 := newTestWorker(t)
			put, err := http.NewRequest(http.MethodPut, w3.ts.URL+pathFrames+id, bytes.NewReader(frameBody))
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := client.Do(put); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("frame put: %v %v", resp, err)
			} else {
				resp.Body.Close()
			}
			body, err := json.Marshal(EvalRequest{Frame: id, Query: g.query, Options: opts, Shards: []int{0}})
			if err != nil {
				t.Fatal(err)
			}
			for _, repeat := range []bool{false, true} {
				er := directEval(t, client, w3.ts.URL, body, fmt.Sprintf("golden-%s-%v", g.name, repeat))
				if er.Meta.UpdatedRows != res.UpdatedRows {
					t.Fatalf("worker selected %d rows, coordinator %d", er.Meta.UpdatedRows, res.UpdatedRows)
				}
				prep := findSpan(er.Spans, "prepare")
				if prep == nil || prep.Attrs["cache_hit"] != repeat {
					t.Fatalf("repeat=%v: worker prepare span %v, want cache_hit %v: %s", repeat, prep, repeat, obs.Skeleton(er.Spans))
				}
				// The prepare lookup is a span, not a metered stage: on a miss
				// the view, blocks and plan stages it nests are metered once.
				if _, ok := er.Meter.StagesMs["prepare"]; ok {
					t.Fatalf("repeat=%v: worker meter counts prepare beside the stages it nests: %v", repeat, er.Meter.StagesMs)
				}
				_, planned := er.Meter.StagesMs["plan"]
				planSpan := findSpan(er.Spans, "plan")
				if repeat {
					if planned || planSpan != nil {
						t.Fatalf("the repeat planned WHEN again: meter %v, trace %s", er.Meter.StagesMs, obs.Skeleton(er.Spans))
					}
					continue
				}
				if !planned {
					t.Fatalf("worker meter has no plan stage: %v", er.Meter.StagesMs)
				}
				if planSpan == nil {
					t.Fatal("worker trace has no plan span")
				}
				if got, _ := planSpan.Attrs["pushed"].(float64); int(got) != g.pushed {
					t.Fatalf("worker plan span pushed=%v, want %d", planSpan.Attrs["pushed"], g.pushed)
				}
			}
		})
	}
}

// directEval POSTs an eval request body to the worker at base, traced under
// traceID, and decodes its reply.
func directEval(t *testing.T, client *http.Client, base string, body []byte, traceID string) *EvalResponse {
	t.Helper()
	er, _ := directEvalRaw(t, client, base, body, traceID)
	return er
}

// directEvalRaw is directEval that also returns the reply body as it came.
func directEvalRaw(t *testing.T, client *http.Client, base string, body []byte, traceID string) (*EvalResponse, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+pathEval, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceIDHeader, traceID)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	er, err := decodeEvalReply(raw)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("worker eval: status %d, decode err %v", resp.StatusCode, err)
	}
	return er, raw
}

// findSpan returns the first span named name in the tree under s.
func findSpan(s *obs.SpanJSON, name string) *obs.SpanJSON {
	if s == nil || s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestDistributedEvalParity checks multi-shard, multi-worker distribution
// against the local run bit for bit, and that the frame ships exactly once
// per worker while repeat queries hit warm frames.
func TestDistributedEvalParity(t *testing.T) {
	queries := []string{
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
		`USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`,
	}
	opts := engine.Options{Seed: 7, ShardRows: 256} // 1000 rows -> 4 plan shards
	workers := []*testWorker{newTestWorker(t), newTestWorker(t), newTestWorker(t)}
	c, _ := newTestCoordinator(t, workers...)
	db, model := distDataset(t, "german")
	frame := NewFrame(db, model)
	var progressMax atomic.Int64
	for _, src := range queries {
		ldb, lmodel := distDataset(t, "german")
		q, err := hyperql.ParseWhatIf(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.EvaluateContext(context.Background(), ldb, lmodel, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
			DB: db, Model: model, Frame: frame, Query: mustParse(t, src), Options: opts,
			Progress: func(stage string, done, total int) {
				if stage == "shards" && int64(done) > progressMax.Load() {
					progressMax.Store(int64(done))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if g17(got.Value) != g17(want.Value) || g17(got.Sum) != g17(want.Sum) || g17(got.Count) != g17(want.Count) {
			t.Fatalf("%s: distributed %s/%s/%s != local %s/%s/%s", src,
				g17(got.Value), g17(got.Sum), g17(got.Count), g17(want.Value), g17(want.Sum), g17(want.Count))
		}
		if got.EstimatorUsed != want.EstimatorUsed || got.Blocks != want.Blocks || got.ShardPlan != want.ShardPlan {
			t.Fatalf("%s: metadata diverges: %+v vs %+v", src, got, want)
		}
		if got.RemoteWorkers < 2 {
			t.Fatalf("%s: only %d remote workers contributed (plan %d)", src, got.RemoteWorkers, got.ShardPlan)
		}
	}
	if progressMax.Load() != 4 {
		t.Fatalf("shards progress peaked at %d, want 4", progressMax.Load())
	}
	for i, tw := range workers {
		if got := tw.puts.Load(); got != 1 {
			t.Fatalf("worker %d received %d frame ships, want exactly 1 (first touch only)", i+1, got)
		}
	}
	st := c.Stats()
	if st.RemoteEvals != uint64(len(queries)) || st.FramesShipped != 3 || st.WorkersLost != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestDistributedNaNPartial: one NaN in the output column makes the partials
// that hold it NaN. A healthy fleet must deliver them as they are — the same
// bits as the local run, no retry, no degradation, both workers used — not
// fail every attempt and fall back to local evaluation.
func TestDistributedNaNPartial(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("X,Y\n")
	for i := range 300 {
		y := strconv.Itoa(i % 7)
		if i == 151 { // X = 1, the updated value
			y = "NaN"
		}
		fmt.Fprintf(&csv, "%d,%s\n", i%3, y)
	}
	rel, err := relation.ReadCSVKeyed("T", strings.NewReader(csv.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase()
	if err := db.Add(rel); err != nil {
		t.Fatal(err)
	}
	model := causal.NewModel()
	model.AddEdge("T.X", "T.Y")
	const src = `USE T UPDATE(X) = 1 OUTPUT AVG(POST(Y))`
	opts := engine.Options{Seed: 7, ShardRows: 256} // 300 rows -> 2 plan shards
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatal(err)
	}
	local, err := engine.EvaluateContext(context.Background(), db, model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(local.Value) {
		t.Fatalf("local value %v, want NaN (the fixture lost its NaN)", local.Value)
	}

	c, _ := newTestCoordinator(t, newTestWorker(t), newTestWorker(t))
	res, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
		DB: db, Model: model, Frame: NewFrame(db, model), Query: mustParse(t, src), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Value) != math.Float64bits(local.Value) {
		t.Fatalf("workers value bits %#x != local %#x", math.Float64bits(res.Value), math.Float64bits(local.Value))
	}
	if st := c.Stats(); res.Degraded || st.Retries != 0 || res.RemoteWorkers != 2 {
		t.Fatalf("degraded=%v (%q), retries %d, remote workers %d; want an undegraded answer from both workers with no retry",
			res.Degraded, res.DegradedReason, st.Retries, res.RemoteWorkers)
	}

	// On the wire the NaNs are class values: each shard's rows go as
	// one-byte codes against fewer classes, and the reply decodes and merges
	// to the local bits.
	pr, err := engine.EvaluatePartialContext(context.Background(), db, model, q, opts, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	nans := 0
	for _, p := range pr.Partials {
		if p.Width != 1 || len(p.Sum) >= len(p.Codes) {
			t.Fatalf("shard %d went as %d values at code width %d over %d code bytes, want fewer classes than rows in 1-byte codes",
				p.Shard, len(p.Sum), p.Width, len(p.Codes))
		}
		for _, v := range p.Sum {
			if math.IsNaN(v) {
				nans++
			}
		}
	}
	if nans == 0 {
		t.Fatal("no NaN class sum travels")
	}
	body, err := encodeEvalReply(&EvalResponse{PartialResult: *pr})
	if err != nil {
		t.Fatal(err)
	}
	er, err := decodeEvalReply(body)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := engine.MergePartials(er.Meta, er.Partials)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(merged.Value) != math.Float64bits(local.Value) {
		t.Fatalf("merged value bits %#x != local %#x", math.Float64bits(merged.Value), math.Float64bits(local.Value))
	}
}

// TestEvalReplyBytes: a worker replies with what its producer computed, not
// two floats a row. Asked for 3 of the 5 shards of German-Syn at 20,000 rows,
// under one update attribute (1-byte codes) and two (2-byte codes), and for 3
// of the 4 shards of a world whose first shard has a class a row and whose
// second has nearly that many (where codes do not pay, the rows' values go
// as they are), the body after the header holds at most 4 B a row of those
// shards plus 16 B a class their rows reference (the classes the worker's
// eval_shards stage valued), and never more than replyBytesPerRow a row.
func TestEvalReplyBytes(t *testing.T) {
	german := dataset.GermanSyn(20000, 7)
	var csv strings.Builder
	csv.WriteString("F,X,Y\n")
	for i := range 2000 {
		f := 0
		if i < 900 {
			f = i
		}
		fmt.Fprintf(&csv, "%d,%d,%d\n", f, i%2, i%3)
	}
	rel, err := relation.ReadCSVKeyed("T", strings.NewReader(csv.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	skewed := relation.NewDatabase()
	if err := skewed.Add(rel); err != nil {
		t.Fatal(err)
	}
	skewedModel := causal.NewModel()
	skewedModel.AddEdge("T.F", "T.X")
	skewedModel.AddEdge("T.F", "T.Y")
	skewedModel.AddEdge("T.X", "T.Y")
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, tc := range []struct {
		name   string
		db     *relation.Database
		model  *causal.Model
		query  string
		opts   engine.Options
		widths []int // the code width of each partial
	}{
		{"german, 1-byte codes", german.DB, german.Model, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			engine.Options{Seed: 7}, []int{1, 1, 1}},
		{"german, 2-byte codes", german.DB, german.Model,
			`USE German UPDATE(Status) = 3 AND UPDATE(Savings) = 1 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2 OR PRE(Housing) = 1`,
			engine.Options{Seed: 7}, []int{2, 2, 2}},
		{"a class a row, then fewer", skewed, skewedModel, `USE T UPDATE(X) = 1 OUTPUT AVG(POST(Y))`,
			engine.Options{Seed: 7, ShardRows: 500}, []int{0, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id, frameBody, err := NewFrame(tc.db, tc.model).Payload()
			if err != nil {
				t.Fatal(err)
			}
			w := newTestWorker(t)
			put, err := http.NewRequest(http.MethodPut, w.ts.URL+pathFrames+id, bytes.NewReader(frameBody))
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := client.Do(put); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("frame put: %v %v", resp, err)
			} else {
				resp.Body.Close()
			}
			shards := []int{0, 1, 2}
			body, err := json.Marshal(EvalRequest{Frame: id, Query: tc.query, Options: tc.opts, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			er, raw := directEvalRaw(t, client, w.ts.URL, body, "reply-bytes")
			plan := shard.Rows(er.Meta.ViewRows, tc.opts.ShardRows)
			rows := 0
			for _, s := range shards {
				lo, hi := plan.Bounds(s)
				rows += hi - lo
			}
			stage := findSpan(er.Spans, "eval_shards")
			if stage == nil {
				t.Fatalf("no eval_shards span: %s", obs.Skeleton(er.Spans))
			}
			classes, _ := stage.Attrs["evaluated"].(float64)
			payload := len(raw) - len(evalMagic) - 4 - int(binary.LittleEndian.Uint32(raw[len(evalMagic):]))
			if limit := 4*rows + 16*int(classes); payload > limit || payload > replyBytesPerRow*rows {
				t.Errorf("%d bytes after the header for %d rows over %v classes, want at most %d and at most %d",
					payload, rows, classes, limit, replyBytesPerRow*rows)
			}
			var widths []int
			for _, p := range er.Partials {
				widths = append(widths, p.Width)
			}
			if !slices.Equal(widths, tc.widths) {
				t.Errorf("partials went at code widths %v, want %v", widths, tc.widths)
			}
		})
	}
}

// TestWorkerLossRequeue kills one worker mid-request and asserts the
// coordinator requeues its shards onto the survivor (logging the requeue),
// quarantines the dead worker (it stays registered, excluded from
// assignment), reports the degradation, keeps the result bit-identical, and
// leaks no goroutines. Then the survivor dies too and the last rung takes
// over: local evaluation of the pending shards. (CI runs this under -race.)
func TestWorkerLossRequeue(t *testing.T) {
	opts := engine.Options{Seed: 7, ShardRows: 128} // 1000 rows -> 8 plan shards
	src := `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	ldb, lmodel := distDataset(t, "german")
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvaluateContext(context.Background(), ldb, lmodel, q, opts)
	if err != nil {
		t.Fatal(err)
	}

	// One subtest, named for the one compute route: its own goroutine
	// baseline, and the name CI's run filters and logs have always shown.
	t.Run("eval", func(t *testing.T) {
		before := runtime.NumGoroutine()
		w1, w2 := newTestWorker(t), newTestWorker(t)
		var logMu sync.Mutex
		var logged []string
		// One failure quarantines, one attempt per RPC: the dead worker is
		// hit exactly once and every later round skips it.
		c, client := newTestCoordinatorCfg(t, CoordinatorConfig{
			BreakerFailures: 1,
			MaxAttempts:     1,
			Logf: func(format string, args ...any) {
				logMu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				logMu.Unlock()
			},
		}, w1, w2)
		w2.killEval.Store(true) // w2 dies on its first dispatch

		db, model := distDataset(t, "german")
		run := func() *engine.Result {
			t.Helper()
			res, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
				DB: db, Model: model, Frame: NewFrame(db, model), Query: mustParse(t, src), Options: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		res := run()
		if g17(res.Value) != g17(want.Value) {
			t.Fatalf("post-requeue value %s != local %s", g17(res.Value), g17(want.Value))
		}
		if !res.Degraded || res.DegradedReason != "worker_lost" {
			t.Fatalf("degraded=%v reason=%q, want true/worker_lost", res.Degraded, res.DegradedReason)
		}
		if res.RemoteWorkers != 1 {
			t.Fatalf("RemoteWorkers %d, want 1 (the survivor)", res.RemoteWorkers)
		}
		st := c.Stats()
		if st.WorkersLost != 1 || st.Requeues != 1 || st.WorkersQuarantined != 1 {
			t.Fatalf("stats after loss: %+v (want 1 lost, 1 requeue, 1 quarantined)", st)
		}
		if st.WorkersAlive != 1 || st.WorkersRegistered != 2 {
			t.Fatalf("alive=%d registered=%d, want 1 assignable of 2 registered (quarantine, not drop)", st.WorkersAlive, st.WorkersRegistered)
		}
		if w2.evals.Load() != 1 || w1.evals.Load() < 2 {
			t.Fatalf("eval counts: w1=%d w2=%d (w2 must have died on its only dispatch)", w1.evals.Load(), w2.evals.Load())
		}
		logMu.Lock()
		requeueLogged := false
		for _, line := range logged {
			if strings.Contains(line, "requeueing") && strings.Contains(line, pathEval) {
				requeueLogged = true
			}
		}
		logMu.Unlock()
		if !requeueLogged {
			t.Fatalf("no requeue line naming %s in the coordinator log: %q", pathEval, logged)
		}

		// All workers gone mid-stream: the last rung still produces the
		// identical result, reporting the full ladder.
		w1.killEval.Store(true)
		res2 := run()
		if g17(res2.Value) != g17(want.Value) {
			t.Fatalf("local-fallback value %s != local %s", g17(res2.Value), g17(want.Value))
		}
		if !res2.Degraded || res2.DegradedReason != "worker_lost,quarantine,local_fallback" {
			t.Fatalf("degraded=%v reason=%q, want the full ladder", res2.Degraded, res2.DegradedReason)
		}
		if got := c.Stats().LocalFallbacks; got != 1 {
			t.Fatalf("local fallbacks %d, want 1", got)
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
	})
}

// TestDistLedgerReconciles pins the cross-process byte ledger in-process: the
// coordinator charges each accepted request's body once — the bytes the
// worker metered as its Content-Length — so a retry-free query's dispatch
// ledger equals the workers' summed ledger exactly.
func TestDistLedgerReconciles(t *testing.T) {
	opts := engine.Options{Seed: 7, ShardRows: 128} // 8 plan shards
	c, _ := newTestCoordinator(t, newTestWorker(t), newTestWorker(t))
	db, model := distDataset(t, "german")
	meter := obs.NewMeter()
	res, err := c.EvaluateWhatIf(obs.ContextWithMeter(context.Background(), meter), EvalSpec{
		DB: db, Model: model, Frame: NewFrame(db, model),
		Query: mustParse(t, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	mj := meter.JSON()
	if mj.Retries != 0 || mj.RemoteShards != uint64(res.ShardPlan) || mj.WorkerShardsRun != mj.RemoteShards {
		t.Fatalf("retries %d, remote shards %d, worker shards %d; want 0 retries and the plan's %d shards on both sides",
			mj.Retries, mj.RemoteShards, mj.WorkerShardsRun, res.ShardPlan)
	}
	if mj.DistBytesShipped == 0 || mj.DistBytesShipped != mj.WorkerBytes {
		t.Fatalf("shipped %d bytes, workers received %d; want equal and > 0",
			mj.DistBytesShipped, mj.WorkerBytes)
	}
}

// TestEvalReplyShapeChecked: a worker answering shards it was not asked for
// fails the operation with an error naming that worker — not an anonymous
// merge failure later — and a wrong reply is not requeued.
func TestEvalReplyShapeChecked(t *testing.T) {
	inner := NewWorker(WorkerConfig{}).Handler()
	var evals atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathEval {
			// Evaluate the first chunk's shards whatever the request said.
			evals.Add(1)
			var req EvalRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Error(err)
			}
			req.Shards = []int{0, 1}
			body, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
			}
			r = r.Clone(r.Context())
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		}
		inner.ServeHTTP(rw, r)
	}))
	defer stub.Close()

	c, _ := newTestCoordinator(t, newTestWorker(t))
	c.Register("w2", stub.URL) // sorted second: asked for shards 2 and 3
	db, model := distDataset(t, "german")
	_, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
		DB: db, Model: model, Frame: NewFrame(db, model),
		Query:   mustParse(t, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`),
		Options: engine.Options{Seed: 7, ShardRows: 256}, // 4 plan shards
	})
	if err == nil || !strings.Contains(err.Error(), "worker w2 eval shape mismatch") {
		t.Fatalf("err = %v, want an eval shape mismatch naming worker w2", err)
	}
	if st := c.Stats(); st.Requeues != 0 || st.WorkersLost != 0 || evals.Load() != 1 {
		t.Fatalf("requeues %d, lost %d, stub evals %d; a wrong reply must end the operation, not requeue it",
			st.Requeues, st.WorkersLost, evals.Load())
	}
}

// TestHeartbeatLease exercises registration, lease expiry, and heartbeats
// through the coordinator's HTTP surface.
func TestHeartbeatLease(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{TTL: 60 * time.Millisecond})
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	post := func(path string, body string) int {
		req, err := http.NewRequest(http.MethodPost, cts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req, _ = http.NewRequest(http.MethodPost, cts.URL+path, strings.NewReader(body))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(pathWorkers, `{"id":"wA","url":"http://127.0.0.1:1"}`); got != http.StatusOK {
		t.Fatalf("register status %d", got)
	}
	if c.WorkersAlive() != 1 {
		t.Fatal("worker not alive after register")
	}
	// Heartbeats keep the lease.
	for i := 0; i < 3; i++ {
		time.Sleep(30 * time.Millisecond)
		if got := post(pathWorkers+"/wA/beat", ""); got != http.StatusOK {
			t.Fatalf("beat status %d", got)
		}
	}
	if c.WorkersAlive() != 1 {
		t.Fatal("worker lease lapsed despite heartbeats")
	}
	// Lapse the lease: the worker drops out of the assignable set.
	time.Sleep(100 * time.Millisecond)
	if c.WorkersAlive() != 0 {
		t.Fatal("worker still alive past its lease")
	}
	// A beat for an unknown id is 404 (the worker must re-register).
	if got := post(pathWorkers+"/ghost/beat", ""); got != http.StatusNotFound {
		t.Fatalf("ghost beat status %d, want 404", got)
	}
}

// TestFrameRoundTrip proves the frame codec is bit-exact: every value of
// every relation, the foreign keys, and the model survive the trip, and the
// rebuilt database reproduces a golden evaluation exactly.
func TestFrameRoundTrip(t *testing.T) {
	db, model := distDataset(t, "toy")
	frame := NewFrame(db, model)
	id1, err := frame.ID()
	if err != nil {
		t.Fatal(err)
	}
	db2, model2 := rebuildChain(t, frame)
	// Content addressing: the rebuilt database re-encodes to the same id.
	id2, _, err := NewFrame(db2, model2).Payload()
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("frame id changed across a round trip: %.12s -> %.12s", id1, id2)
	}
	// Exact value fidelity, row order included.
	for _, name := range db.Names() {
		a, b := db.Relation(name), db2.Relation(name)
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d rows -> %d rows", name, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			for j, v := range a.Row(i) {
				w := b.Row(i)[j]
				if v.Kind() != w.Kind() || !v.Equal(w) {
					t.Fatalf("%s[%d][%d]: %v (%s) -> %v (%s)", name, i, j, v, v.Kind(), w, w.Kind())
				}
			}
		}
	}
	// The rebuilt pair reproduces the pinned golden bit for bit.
	q, err := hyperql.ParseWhatIf(`USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand,
		AVG(T2.Rating) AS Rtng
		FROM Product AS T1, Review AS T2
		WHERE T1.PID = T2.PID
		GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand)
		WHEN Brand = 'Asus'
		UPDATE(Price) = 1.1 * PRE(Price)
		OUTPUT AVG(POST(Rtng))
		FOR PRE(Category) = 'Laptop'`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.EvaluateContext(context.Background(), db2, model2, q, engine.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := g17(res.Value); got != "2.6302810387072708" {
		t.Fatalf("rebuilt-frame evaluation %s != golden", got)
	}
}

func TestValueCodec(t *testing.T) {
	vals := []relation.Value{
		relation.Null,
		relation.Bool(true), relation.Bool(false),
		relation.Int(0), relation.Int(-42), relation.Int(1 << 62),
		relation.Float(2.0), relation.Float(0.1), relation.Float(-1e-300), relation.Float(1.7976931348623157e308),
		relation.String(""), relation.String("2"), relation.String("true"), relation.String("NULL"),
		relation.String("héllo,\"world\"\n"),
	}
	for _, v := range vals {
		got, err := decodeValue(encodeValue(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got.Kind() != v.Kind() || !got.Equal(v) {
			t.Fatalf("%v (%s) round-tripped to %v (%s)", v, v.Kind(), got, got.Kind())
		}
	}
}

// TestWorkerBodyCap: MaxBodyBytes caps every request body a worker reads, an
// eval request as well as a frame upload; one byte over is a 413.
func TestWorkerBodyCap(t *testing.T) {
	const limit = 64
	ts := httptest.NewServer(NewWorker(WorkerConfig{MaxBodyBytes: limit}).Handler())
	defer ts.Close()
	const head, tail = `{"frame":"f","query":"`, `"}`
	eval := head + strings.Repeat("x", limit+1-len(head)-len(tail)) + tail // one JSON value
	for _, c := range []struct {
		name, method, path, body string
	}{
		{"eval", http.MethodPost, pathEval, eval},
		{"frame", http.MethodPut, pathFrames + "abc", strings.Repeat("x", limit+1)},
	} {
		if len(c.body) != limit+1 {
			t.Fatalf("%s body is %d bytes, want %d", c.name, len(c.body), limit+1)
		}
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s body of %d bytes over a cap of %d: status %d, want 413", c.name, len(c.body), limit, resp.StatusCode)
		}
	}
}

// TestDistSecret pins the shared-secret gate on both ends: registration
// without the secret is rejected, worker compute endpoints reject
// unauthenticated callers, and a matched pair works end to end.
func TestDistSecret(t *testing.T) {
	w := NewWorker(WorkerConfig{Secret: "s3cret"})
	wts := httptest.NewServer(w.Handler())
	defer wts.Close()

	c := NewCoordinator(CoordinatorConfig{TTL: time.Minute, Secret: "s3cret"})
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	// Registration without (or with a wrong) secret: 401, registry empty.
	for _, auth := range []string{"", "Bearer wrong"} {
		req, err := http.NewRequest(http.MethodPost, cts.URL+pathWorkers,
			strings.NewReader(`{"id":"evil","url":"http://127.0.0.1:1"}`))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("register auth=%q: status %d, want 401", auth, resp.StatusCode)
		}
	}
	if c.WorkersAlive() != 0 {
		t.Fatal("unauthenticated registration reached the registry")
	}

	// Worker compute endpoints reject unauthenticated callers outright.
	resp, err := http.Post(wts.URL+pathEval, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated eval: status %d, want 401", resp.StatusCode)
	}

	// A matched secret pair distributes normally, bit-identical as ever.
	c.Register("w1", wts.URL)
	db, model := distDataset(t, "german")
	opts := engine.Options{Seed: 7, ShardRows: 256}
	res, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
		DB: db, Model: model, Frame: NewFrame(db, model),
		Query: mustParse(t, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteWorkers != 1 {
		t.Fatalf("secured pair did not distribute: %+v", res)
	}
}

// TestDistErrorEnvelope pins the error envelope on the worker's and the
// coordinator's routes: status, Content-Type, code and retryable, the same
// shape hyperd's /v1 routes answer.
func TestDistErrorEnvelope(t *testing.T) {
	const secret = "s3cret"
	wts := httptest.NewServer(NewWorker(WorkerConfig{Secret: secret}).Handler())
	defer wts.Close()
	cts := httptest.NewServer(NewCoordinator(CoordinatorConfig{TTL: time.Minute, Secret: secret}).Handler())
	defer cts.Close()

	cases := []struct {
		name, base, method, path, body string
		auth                           bool
		want                           int
		code                           string
	}{
		{"worker eval without secret", wts.URL, "POST", pathEval, `{}`, false, 401, "unauthorized"},
		{"worker frame without secret", wts.URL, "PUT", pathFrames + "abc", `x`, false, 401, "unauthorized"},
		{"worker eval unknown frame", wts.URL, "POST", pathEval, `{"frame":"nope","query":"x"}`, true, 404, "frame_missing"},
		{"worker eval malformed body", wts.URL, "POST", pathEval, `{"frame":`, true, 400, "bad_request"},
		{"worker traces bad limit", wts.URL, "GET", "/v1/traces?limit=-1", "", false, 400, "bad_request"},
		{"worker unknown trace", wts.URL, "GET", "/v1/traces/nope", "", false, 404, "not_found"},
		{"register without secret", cts.URL, "POST", pathWorkers, `{"id":"w","url":"http://127.0.0.1:1"}`, false, 401, "unauthorized"},
		{"register without id", cts.URL, "POST", pathWorkers, `{"url":"http://127.0.0.1:1"}`, true, 400, "bad_request"},
		{"register non-http url", cts.URL, "POST", pathWorkers, `{"id":"w","url":"ftp://127.0.0.1:1"}`, true, 400, "bad_request"},
		{"register url without host", cts.URL, "POST", pathWorkers, `{"id":"w","url":"http:///dist"}`, true, 400, "bad_request"},
		{"beat unknown worker", cts.URL, "POST", pathWorkers + "/nope/beat", "", true, 404, "not_found"},
		{"delete unknown worker", cts.URL, "DELETE", pathWorkers + "/nope", "", true, 404, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.auth {
				setSecret(req, secret)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.want, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var body httpapi.ErrorResponse
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("error body %q does not decode as the envelope: %v", raw, err)
			}
			if body.Error == "" || body.Code != tc.code || body.Retryable {
				t.Errorf("envelope = %+v, want code %q, not retryable", body, tc.code)
			}
		})
	}
}

// TestFrameShipSingleFlight proves concurrent cold requests against one
// worker upload the frame exactly once: the in-flight ship is shared, not
// raced.
func TestFrameShipSingleFlight(t *testing.T) {
	tw := newTestWorker(t)
	c, _ := newTestCoordinator(t, tw)
	db, model := distDataset(t, "german")
	frame := NewFrame(db, model)
	opts := engine.Options{Seed: 7, ShardRows: 256}

	const conc = 8
	var wg sync.WaitGroup
	errs := make([]error, conc)
	q := mustParse(t, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.EvaluateWhatIf(context.Background(), EvalSpec{
				DB: db, Model: model, Frame: frame, Options: opts, Query: q,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
	}
	if got := tw.puts.Load(); got != 1 {
		t.Fatalf("frame shipped %d times under %d concurrent cold evals, want exactly 1", got, conc)
	}
}

// mustParse parses a what-if query.
func mustParse(t *testing.T, src string) *hyperql.WhatIf {
	t.Helper()
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestBadStoredWorkerURL: a stored worker URL that does not parse — which
// registration refuses, but a -dist-state file or a direct Register can
// still hold — fails that worker like a dial failure: its breaker counts it
// and its shards requeue. The query is answered through the other worker,
// or through the local fallback when there is none, bit for bit.
func TestBadStoredWorkerURL(t *testing.T) {
	opts := engine.Options{Seed: 7, ShardRows: 256} // 1000 rows -> 4 plan shards
	src := `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	db, model := distDataset(t, "german")
	want, err := engine.EvaluateContext(context.Background(), db, model, mustParse(t, src), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		good   bool
		reason string
	}{
		{"other worker", true, "worker_lost"},
		{"local fallback", false, "worker_lost,local_fallback"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var workers []*testWorker
			if tc.good {
				workers = append(workers, newTestWorker(t)) // w1
			}
			c, _ := newTestCoordinatorCfg(t, CoordinatorConfig{MaxAttempts: 1}, workers...)
			c.Register("w0", "http://[::1") // sorts first, so it is given shards
			res, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
				DB: db, Model: model, Frame: NewFrame(db, model), Query: mustParse(t, src), Options: opts,
			})
			if err != nil {
				t.Fatalf("a bad stored URL failed the query: %v", err)
			}
			if g17(res.Value) != g17(want.Value) || g17(res.Sum) != g17(want.Sum) || g17(res.Count) != g17(want.Count) {
				t.Fatalf("answer %s/%s/%s, local %s/%s/%s", g17(res.Value), g17(res.Sum), g17(res.Count),
					g17(want.Value), g17(want.Sum), g17(want.Count))
			}
			if res.DegradedReason != tc.reason {
				t.Errorf("degraded reason %q, want %q", res.DegradedReason, tc.reason)
			}
			if tc.good && res.RemoteWorkers != 1 {
				t.Errorf("%d remote workers answered, want the good one", res.RemoteWorkers)
			}
			for _, wi := range c.WorkerInfos() {
				if wi.ID == "w0" && wi.Fails == 0 && !wi.Quarantined {
					t.Errorf("the bad URL's breaker counted nothing: %+v", wi)
				}
			}
		})
	}
}

// TestEvalReplyLimit: the coordinator reads an eval reply under the limit
// its request fixes, replyBytesPerRow a row of the assigned shards plus
// replyAllowance. A fake worker that answers one byte past the limit, or
// that claims a huge Content-Length, fails like a dropped connection: each
// attempt is refused, the shards fall back to local evaluation and the
// answer is the local one.
func TestEvalReplyLimit(t *testing.T) {
	opts := engine.Options{Seed: 7}
	src := `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	db, model := distDataset(t, "german")
	q := mustParse(t, src)
	want, err := engine.EvaluateContext(context.Background(), db, model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := engine.PlanContext(context.Background(), db, model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	limit := replyBytesPerRow*rows + replyAllowance
	for _, tc := range []struct {
		name  string
		reply func(http.ResponseWriter)
	}{
		{"one byte over", func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(make([]byte, limit+1))
		}},
		{"huge Content-Length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.FormatInt(1<<40, 10))
			_, _ = w.Write(evalMagic[:])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var evals atomic.Int64
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPut {
					_, _ = io.Copy(io.Discard, r.Body)
					httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
					return
				}
				evals.Add(1)
				tc.reply(w)
			}))
			defer fake.Close()
			var logMu sync.Mutex
			var logged []string
			client := &http.Client{}
			defer client.CloseIdleConnections()
			c := NewCoordinator(CoordinatorConfig{TTL: time.Minute, Client: client,
				MaxAttempts: 2,
				Logf: func(format string, args ...any) {
					logMu.Lock()
					logged = append(logged, fmt.Sprintf(format, args...))
					logMu.Unlock()
				}})
			c.Register("fake", fake.URL)
			res, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
				DB: db, Model: model, Frame: NewFrame(db, model), Query: mustParse(t, src), Options: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if g17(res.Value) != g17(want.Value) || res.DegradedReason != "worker_lost,local_fallback" {
				t.Fatalf("answer %s (%q), want the local %s through the fallback", g17(res.Value), res.DegradedReason, g17(want.Value))
			}
			if n := evals.Load(); n != 2 {
				t.Errorf("the fake worker was asked %d times, want both attempts", n)
			}
			logMu.Lock()
			defer logMu.Unlock()
			if !strings.Contains(strings.Join(logged, "\n"), fmt.Sprintf("%d-byte limit", limit)) {
				t.Errorf("no attempt was refused at the %d-byte limit: %q", limit, logged)
			}
		})
	}
}

// TestReadReplyBounds: a reply of exactly the limit is read, with a known
// Content-Length into one buffer of that size; one byte more, or a Content-Length past the
// limit, is refused, the latter before any of the body is read.
func TestReadReplyBounds(t *testing.T) {
	const limit = 1 << 20
	body := bytes.Repeat([]byte{7}, limit)
	for _, cl := range []int64{limit, -1} {
		got, err := readReply(bytes.NewReader(body), cl, limit)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("Content-Length %d: a reply of exactly the limit: %d bytes, %v", cl, len(got), err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := readReply(bytes.NewReader(body), limit, limit); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit+64<<10 {
		t.Errorf("reading %d bytes of declared length allocated %d B: the buffer was regrown", limit, got)
	}
	if _, err := readReply(bytes.NewReader(append(body, 7)), -1, limit); err == nil {
		t.Error("a reply one byte past the limit was read")
	}
	if _, err := readReply(iotest.ErrReader(errors.New("read")), limit+1, limit); err == nil || !strings.Contains(err.Error(), "Content-Length") {
		t.Errorf("a Content-Length past the limit: %v, want it refused unread", err)
	}
}
