package obs

import (
	"context"
	"net/url"
	"testing"
	"time"
)

// TestMeterNilSafe pins the contract that every meter method is a no-op on
// nil: instrumentation points charge unconditionally, so an unmetered
// context must cost exactly one nil check and never panic.
func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.SetShape("s", "k", "fp", "text")
	m.addStage("view", time.Millisecond)
	_, st := StartStage(context.Background(), "view") // neither traced nor metered
	st.Set("rows", 1)
	st.End()
	m.AddTuples(1)
	m.AddShards(1)
	m.SetPlanShards(1)
	m.AddFitTrained()
	m.AddFitCached()
	m.AddIPNodes(1)
	m.AddCandidates(1)
	m.AddWhatIfEvals(1)
	m.AddFrameBytes(1)
	m.AddDistBytesShipped(1)
	m.AddDistBytesReceived(1)
	m.AddRemoteShards(1)
	m.AddRetries(1)
	m.Fold(&MeterJSON{ShardsRun: 3})
	if m.JSON() != nil {
		t.Error("nil meter should snapshot to nil")
	}
	if s, k, fp, txt := m.Shape(); s != "" || k != "" || fp != "" || txt != "" {
		t.Error("nil meter should report empty shape")
	}
	if MeterFromContext(context.Background()) != nil {
		t.Error("bare context should carry no meter")
	}
	var mj *MeterJSON
	mj.Add(&MeterJSON{Retries: 1}) // must not panic
}

// TestMeterChargesAndJSON pins the snapshot: counters accumulate, plan
// shards keep a max, stages sum across calls.
func TestMeterChargesAndJSON(t *testing.T) {
	m := NewMeter()
	m.SetShape("sess", "whatif", "abcd", "USE T ...")
	m.AddTuples(100)
	m.AddTuples(50)
	m.AddShards(2)
	m.SetPlanShards(4)
	m.SetPlanShards(2) // lower ask must not shrink the recorded plan
	m.AddFitTrained()
	m.AddFitCached()
	m.AddFitCached()
	m.addStage("eval_shards", 2*time.Millisecond)
	m.addStage("eval_shards", 3*time.Millisecond)
	mj := m.JSON()
	if mj.TuplesEvaluated != 150 || mj.ShardsRun != 2 || mj.PlanShards != 4 {
		t.Errorf("counters = %+v", mj)
	}
	if mj.FitsTrained != 1 || mj.FitsCached != 2 {
		t.Errorf("fits = %+v", mj)
	}
	if got := mj.StagesMs["eval_shards"]; got < 4.9 || got > 5.1 {
		t.Errorf("eval_shards stage = %v ms, want 5", got)
	}
	if s, k, fp, txt := m.Shape(); s != "sess" || k != "whatif" || fp != "abcd" || txt != "USE T ..." {
		t.Errorf("shape = %q %q %q %q", s, k, fp, txt)
	}
}

// TestMeterFoldAndReconcile pins the cross-process ledger: folded worker
// meters land in worker_* fields, which equal the coordinator's dispatch
// ledger when no retries happened.
func TestMeterFoldAndReconcile(t *testing.T) {
	m := NewMeter()
	// Coordinator side: 3 shards dispatched in two requests of 60 + 40 bytes.
	m.AddRemoteShards(2)
	m.AddRemoteShards(1)
	m.AddDistBytesShipped(60)
	m.AddDistBytesShipped(40)
	// Worker side, as returned in the two responses.
	m.Fold(&MeterJSON{ShardsRun: 2, TuplesEvaluated: 200, DistBytesReceived: 60,
		StagesMs: map[string]float64{"eval_shards": 1.5}})
	m.Fold(&MeterJSON{ShardsRun: 1, TuplesEvaluated: 100, DistBytesReceived: 40, FitsTrained: 2})

	mj := m.JSON()
	if mj.Workers != 2 || mj.WorkerShardsRun != 3 || mj.WorkerTuples != 300 ||
		mj.WorkerBytes != 100 || mj.WorkerFitsTrained != 2 {
		t.Errorf("worker ledger = %+v", mj)
	}
	if mj.StagesMs["worker_eval_shards"] == 0 {
		t.Error("worker stage times should fold in under a worker_ prefix")
	}
	if mj.ShardsRun != 0 {
		t.Error("folding must not leak into the coordinator's own ShardsRun")
	}
	if mj.RemoteShards != mj.WorkerShardsRun || mj.DistBytesShipped != mj.WorkerBytes {
		t.Errorf("retry-free ledgers should agree: %+v", mj)
	}

	// An extra dispatched shard with no worker report shows as a mismatch.
	m.AddRemoteShards(1)
	if mj := m.JSON(); mj.RemoteShards == mj.WorkerShardsRun {
		t.Errorf("mismatched ledgers should differ: %+v", mj)
	}
}

// TestMeterJSONAdd pins the usage-table aggregation: counters sum,
// PlanShards keeps the max, stage maps merge.
func TestMeterJSONAdd(t *testing.T) {
	a := &MeterJSON{TuplesEvaluated: 10, ShardsRun: 1, PlanShards: 2, Retries: 1,
		StagesMs: map[string]float64{"view": 1}}
	a.Add(&MeterJSON{TuplesEvaluated: 5, ShardsRun: 4, PlanShards: 4,
		StagesMs: map[string]float64{"view": 2, "eval": 3}})
	a.Add(nil) // nil-safe
	if a.TuplesEvaluated != 15 || a.ShardsRun != 5 || a.PlanShards != 4 || a.Retries != 1 {
		t.Errorf("sum = %+v", a)
	}
	if a.StagesMs["view"] != 3 || a.StagesMs["eval"] != 3 {
		t.Errorf("stages = %v", a.StagesMs)
	}
	var b MeterJSON
	b.Add(a)
	if b.StagesMs["view"] != 3 {
		t.Error("Add into a zero vector should allocate the stage map")
	}
}

// TestParseTraceFilter table-tests the ?kind= / ?min_ms= / ?limit= parsing,
// including the 400-worthy malformed values.
func TestParseTraceFilter(t *testing.T) {
	cases := []struct {
		query   string
		want    TraceFilter
		wantErr bool
	}{
		{query: "", want: TraceFilter{}},
		{query: "kind=whatif", want: TraceFilter{Kind: "whatif"}},
		{query: "min_ms=1.5", want: TraceFilter{MinMs: 1.5}},
		{query: "limit=3", want: TraceFilter{Limit: 3}},
		{query: "kind=howto&min_ms=10&limit=2", want: TraceFilter{Kind: "howto", MinMs: 10, Limit: 2}},
		{query: "min_ms=-1", wantErr: true},
		{query: "min_ms=abc", wantErr: true},
		{query: "limit=-2", wantErr: true},
		{query: "limit=1.5", wantErr: true},
		{query: "limit=x", wantErr: true},
	}
	for _, c := range cases {
		v, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ParseTraceFilter(v)
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: want error, got %+v", c.query, f)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.query, err)
			continue
		}
		if f != c.want {
			t.Errorf("%q: filter = %+v, want %+v", c.query, f, c.want)
		}
	}
}

// TestListFiltered pins the filtered listing semantics on a live recorder:
// kind matches exactly, min_ms drops fast traces, limit caps newest-first.
func TestListFiltered(t *testing.T) {
	rec := NewRecorder(8)
	slow := NewTrace("whatif")
	time.Sleep(10 * time.Millisecond)
	slow.Finish()
	rec.Record(slow)
	for i := 0; i < 3; i++ {
		tr := NewTrace("howto")
		tr.Finish()
		rec.Record(tr)
	}

	if got := len(rec.ListFiltered(TraceFilter{})); got != 4 {
		t.Errorf("unfiltered = %d traces, want 4", got)
	}
	byKind := rec.ListFiltered(TraceFilter{Kind: "whatif"})
	if len(byKind) != 1 || byKind[0].ID != slow.ID {
		t.Errorf("kind filter = %+v", byKind)
	}
	if got := rec.ListFiltered(TraceFilter{MinMs: 5}); len(got) != 1 || got[0].ID != slow.ID {
		t.Errorf("min_ms filter = %+v", got)
	}
	limited := rec.ListFiltered(TraceFilter{Limit: 2})
	if len(limited) != 2 {
		t.Fatalf("limit filter = %d traces, want 2", len(limited))
	}
	if limited[0].Name != "howto" {
		t.Error("limit should keep the newest traces")
	}
	if got := rec.ListFiltered(TraceFilter{Kind: "nosuch"}); len(got) != 0 {
		t.Errorf("unknown kind = %+v", got)
	}
}
