package obs

import (
	"context"
	"net/url"
	"reflect"
	"sync"
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
	m.Charge(MeterJSON{TuplesEvaluated: 1, ShardsRun: 1, PlanShards: 1, FitsTrained: 1, FitsCached: 1,
		AppendShardsFit: 1, AppendShardsReuse: 1, IPNodes: 1, HowToCandidates: 1, WhatIfEvals: 1,
		FrameBytesShipped: 1, DistBytesShipped: 1, DistBytesReceived: 1, RemoteShards: 1, Retries: 1,
		StagesMs: map[string]float64{"view": 1}})
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
	m.Charge(MeterJSON{TuplesEvaluated: 100})
	m.Charge(MeterJSON{TuplesEvaluated: 50})
	m.Charge(MeterJSON{ShardsRun: 2})
	m.Charge(MeterJSON{PlanShards: 4})
	m.Charge(MeterJSON{PlanShards: 2}) // lower ask must not shrink the recorded plan
	m.Charge(MeterJSON{FitsTrained: 1})
	m.Charge(MeterJSON{FitsCached: 1})
	m.Charge(MeterJSON{FitsCached: 1})
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
	m.Charge(MeterJSON{RemoteShards: 2})
	m.Charge(MeterJSON{RemoteShards: 1})
	m.Charge(MeterJSON{DistBytesShipped: 60})
	m.Charge(MeterJSON{DistBytesShipped: 40})
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
	m.Charge(MeterJSON{RemoteShards: 1})
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

// TestMeterConcurrentCharges charges one meter from many goroutines, as a
// how-to's candidate what-ifs do, while another goroutine snapshots it: the
// final vector must equal the same charges made serially, field for field,
// and every snapshot must be monotone, hold whole Folds and stay within the
// final totals.
func TestMeterConcurrentCharges(t *testing.T) {
	const goroutines, rounds = 8, 1000
	charge := func(m *Meter, g, i int) {
		m.Charge(MeterJSON{PlanShards: uint64(g*rounds + i), FitsTrained: 1, TuplesEvaluated: uint64(i),
			StagesMs: map[string]float64{"ignored": 1}})
		m.Fold(&MeterJSON{ShardsRun: 2, TuplesEvaluated: 3, DistBytesReceived: 5,
			StagesMs: map[string]float64{"eval_shards": 0.25}})
		m.addStage("eval_shards", time.Duration(g+1)*time.Microsecond)
	}
	serial := NewMeter()
	for g := 0; g < goroutines; g++ {
		for i := 0; i < rounds; i++ {
			charge(serial, g, i)
		}
	}

	m := NewMeter()
	done := make(chan struct{})
	last := make(chan MeterJSON, 1)
	go func() {
		var prev MeterJSON
		for {
			s := m.JSON()
			if s.FitsTrained < prev.FitsTrained || s.Workers < prev.Workers || s.PlanShards < prev.PlanShards {
				t.Errorf("snapshot went backwards: %+v after %+v", s, prev)
			}
			if s.WorkerShardsRun != 2*s.Workers || s.WorkerBytes != 5*s.Workers {
				t.Errorf("snapshot holds part of a Fold: %+v", s)
			}
			prev = *s
			select {
			case <-done:
				last <- prev
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				charge(m, g, i)
			}
		}(g)
	}
	wg.Wait()
	close(done)

	got, want := m.JSON(), serial.JSON()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent vector differs from serial:\n got %+v\nwant %+v", got, want)
	}
	if got.PlanShards != goroutines*rounds-1 || got.FitsTrained != goroutines*rounds ||
		got.Workers != goroutines*rounds || got.WorkerShardsRun != 2*goroutines*rounds ||
		got.WorkerBytes != 5*goroutines*rounds || got.ShardsRun != 0 {
		t.Errorf("totals = %+v", got)
	}
	if _, ok := got.StagesMs["ignored"]; ok {
		t.Error("Charge must ignore the delta's stage times")
	}
	if ms := got.StagesMs["worker_eval_shards"]; ms != 0.25*goroutines*rounds {
		t.Errorf("worker_eval_shards = %v ms, want %v", ms, 0.25*goroutines*rounds)
	}
	if s := <-last; s.FitsTrained > got.FitsTrained || s.Workers > got.Workers || s.PlanShards > got.PlanShards {
		t.Errorf("snapshot ran ahead of the final totals: %+v", s)
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
// Every trace closes at an explicit duration (10 ms, then 1 ms each), so the
// min_ms cut does not depend on how fast the host runs the test.
func TestListFiltered(t *testing.T) {
	rec := NewRecorder(8)
	finish := func(tr *Trace, d time.Duration) {
		tr.Root().EndAt(tr.Root().start.Add(d))
		rec.Record(tr)
	}
	slow := NewTrace("whatif")
	finish(slow, 10*time.Millisecond)
	for i := 0; i < 3; i++ {
		finish(NewTrace("howto"), time.Millisecond)
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
