package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

func deltaBase(t testing.TB) (*relation.Database, map[string][]relation.Tuple) {
	t.Helper()
	rel, err := relation.ReadCSVKeyed("T",
		strings.NewReader("ID,V,Tag\n1,1.5,a\n2,2.25,b\n3,0.125,c\n"), []string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase()
	db.MustAdd(rel)
	db.SetVersion(1)
	appends := map[string][]relation.Tuple{"T": {
		{relation.Int(4), relation.Float(4.75), relation.String("d")},
		{relation.Int(5), relation.Null, relation.String("e")},
	}}
	return db, appends
}

// rebuildChain decodes the frames' bodies in order the way a worker does,
// each child extending the one before it, and returns the last frame's
// database and model.
func rebuildChain(t *testing.T, frames ...*Frame) (*relation.Database, *causal.Model) {
	t.Helper()
	resident := map[string]*workerFrame{}
	var last *workerFrame
	for _, f := range frames {
		id, body, err := f.Payload()
		if err != nil {
			t.Fatal(err)
		}
		db, model, err := buildFrame(body, func(id string) (*workerFrame, bool) {
			p, ok := resident[id]
			return p, ok
		})
		if err != nil {
			t.Fatalf("frame %.12s does not rebuild: %v", id, err)
		}
		last = &workerFrame{db: db, model: model}
		resident[id] = last
	}
	return last.db, last.model
}

// TestFrameDeltaRoundTrip pins the child frame's wire contract: the body
// names the parent frame and carries only the appended rows, and rebuilding
// root + child yields a database whose encoding is byte-identical to
// encoding the post-append database directly.
func TestFrameDeltaRoundTrip(t *testing.T) {
	db, appends := deltaBase(t)
	base := NewFrame(db, nil)
	baseID, err := base.ID()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := db.Extend(appends)
	if err != nil {
		t.Fatal(err)
	}
	delta := NewFrameDelta(base, db2)
	deltaID, deltaBody, err := delta.Payload()
	if err != nil {
		t.Fatal(err)
	}
	if deltaID == baseID {
		t.Fatal("delta frame must have its own content address")
	}
	var b frameBody
	if err := json.Unmarshal(deltaBody, &b); err != nil {
		t.Fatal(err)
	}
	if b.Parent != baseID || b.Version != 2 || len(b.Relations) != 1 || b.HasModel || b.ForeignKeys != nil {
		t.Fatalf("delta header = {%s v%d, %d relations}, want {%s v2, 1 relation}", b.Parent, b.Version, len(b.Relations), baseID)
	}
	want := [][]string{{"i4", "d4.75", "sd"}, {"i5", "_", "se"}}
	if r := b.Relations[0]; r.Name != "T" || r.Columns != nil || !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("delta relation = %+v, want T's appended rows %v and no schema", r, want)
	}

	// Worker-side reconstruction: root + child == the direct encoding.
	rebuilt, _ := rebuildChain(t, base, delta)
	_, wantBody, err := NewFrame(db2, nil).Payload()
	if err != nil {
		t.Fatal(err)
	}
	_, gotBody, err := NewFrame(rebuilt, nil).Payload()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("rebuilt database diverges from direct encoding:\n got %s\nwant %s", gotBody, wantBody)
	}
}

// TestFrameDeltaAddressChainsParent pins content addressing across the
// version chain: identical appends over identical bases share one id;
// change either the base or the appended rows and the id changes.
func TestFrameDeltaAddressChainsParent(t *testing.T) {
	db, appends := deltaBase(t)
	db2, err := db.Extend(appends)
	if err != nil {
		t.Fatal(err)
	}
	base := NewFrame(db, nil)
	id1, err := NewFrameDelta(base, db2).ID()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := NewFrameDelta(NewFrame(db, nil), db2).ID()
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatal("same base and appends must share one content address")
	}
	// Different base (one extra row before the append): different address
	// even though the delta rows are identical.
	otherDB, _ := deltaBase(t)
	mid, err := otherDB.Extend(map[string][]relation.Tuple{"T": {
		{relation.Int(99), relation.Float(9), relation.String("z")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mid2, err := mid.Extend(appends)
	if err != nil {
		t.Fatal(err)
	}
	id3, err := NewFrameDelta(NewFrame(mid, nil), mid2).ID()
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("different base must yield a different delta address")
	}
}

// TestDistributedDeltaEval ships a base frame, appends rows, and asserts the
// appended version evaluates remotely bit-identically to a local evaluation
// over the same data — while the wire carries only the delta (one extra PUT
// per worker, not a re-ship of the full snapshot).
func TestDistributedDeltaEval(t *testing.T) {
	const src = `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	opts := engine.Options{Seed: 7, ShardRows: 256}

	big := dataset.GermanSyn(1200, 7)
	bigRel := big.DB.Relation("German")
	base := dataset.GermanSyn(1000, 7)
	db := base.DB
	db.SetVersion(1)
	model := base.Model

	var appended []relation.Tuple
	for i := 1000; i < 1200; i++ {
		appended = append(appended, bigRel.Row(i))
	}
	appends := map[string][]relation.Tuple{"German": appended}
	db2, err := db.Extend(appends)
	if err != nil {
		t.Fatal(err)
	}

	workers := []*testWorker{newTestWorker(t), newTestWorker(t)}
	c, _ := newTestCoordinator(t, workers...)
	baseFrame := NewFrame(db, model)
	deltaFrame := NewFrameDelta(baseFrame, db2)

	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		db    *relation.Database
		frame *Frame
	}{
		{db, baseFrame},
		{db2, deltaFrame},
	} {
		want, err := engine.EvaluateContext(context.Background(), tc.db, model, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
			DB: tc.db, Model: model, Frame: tc.frame, Query: mustParse(t, src), Options: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if g17(got.Value) != g17(want.Value) || g17(got.Sum) != g17(want.Sum) || g17(got.Count) != g17(want.Count) {
			t.Fatalf("v%d: distributed %s/%s/%s != local %s/%s/%s", tc.db.Version(),
				g17(got.Value), g17(got.Sum), g17(got.Count), g17(want.Value), g17(want.Sum), g17(want.Count))
		}
	}
	for i, tw := range workers {
		if got := tw.puts.Load(); got != 2 {
			t.Fatalf("worker %d received %d frame ships, want 2 (base once, delta once)", i+1, got)
		}
	}
}

// TestDistributedDeltaColdWorker evaluates a delta frame against a worker
// that never saw the base: the coordinator must ship the parent chain
// bottom-up, and the result must still match the local evaluation.
func TestDistributedDeltaColdWorker(t *testing.T) {
	const src = `USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`
	opts := engine.Options{Seed: 7, ShardRows: 512}

	big := dataset.GermanSyn(1100, 7)
	base := dataset.GermanSyn(1000, 7)
	db := base.DB
	db.SetVersion(1)
	var appended []relation.Tuple
	for i := 1000; i < 1100; i++ {
		appended = append(appended, big.DB.Relation("German").Row(i))
	}
	appends := map[string][]relation.Tuple{"German": appended}
	db2, err := db.Extend(appends)
	if err != nil {
		t.Fatal(err)
	}
	deltaFrame := NewFrameDelta(NewFrame(db, base.Model), db2)

	tw := newTestWorker(t)
	c, _ := newTestCoordinator(t, tw)
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvaluateContext(context.Background(), db2, base.Model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
		DB: db2, Model: base.Model, Frame: deltaFrame, Query: mustParse(t, src), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g17(got.Value) != g17(want.Value) {
		t.Fatalf("cold-worker delta eval %s != local %s", g17(got.Value), g17(want.Value))
	}
	if got := tw.puts.Load(); got != 2 {
		t.Fatalf("cold worker received %d ships, want 2 (base then delta)", got)
	}
}

// TestWarmDispatchSkipsVersionChain: a worker that holds a frame needs none
// of its ancestors, so a dispatch against a head the ledger lists must not
// look at — let alone re-send — the chain below it. The ledger here is what
// a coordinator restored from a state file naming only the head would hold.
func TestWarmDispatchSkipsVersionChain(t *testing.T) {
	const src = `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	opts := engine.Options{Seed: 7, ShardRows: 512}

	big := dataset.GermanSyn(1200, 7).DB.Relation("German")
	base := dataset.GermanSyn(1000, 7)
	model := base.Model
	db := base.DB
	db.SetVersion(1)
	head := NewFrame(db, model)
	for lo := 1000; lo < 1200; lo += 100 { // two appends: a three-frame chain
		var rows []relation.Tuple
		for i := lo; i < lo+100; i++ {
			rows = append(rows, big.Row(i))
		}
		appends := map[string][]relation.Tuple{"German": rows}
		next, err := db.Extend(appends)
		if err != nil {
			t.Fatal(err)
		}
		db, head = next, NewFrameDelta(head, next)
	}
	spec := EvalSpec{DB: db, Model: model, Frame: head, Query: mustParse(t, src), Options: opts}

	tw := newTestWorker(t)
	c1, _ := newTestCoordinator(t, tw)
	want, err := c1.EvaluateWhatIf(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := tw.puts.Load(); got != 3 {
		t.Fatalf("cold worker received %d ships, want the chain's 3", got)
	}

	headID, err := head.ID()
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(t.TempDir(), "dist-state.json")
	raw, err := json.Marshal(persistedState{Workers: []persistedWorker{{ID: "w1", URL: tw.ts.URL, Frames: []string{headID}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, _ := newTestCoordinatorCfg(t, CoordinatorConfig{StatePath: statePath})
	got, err := c2.EvaluateWhatIf(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if g17(got.Value) != g17(want.Value) || got.RemoteWorkers != 1 {
		t.Fatalf("restored coordinator: value %s over %d workers, want %s over 1", g17(got.Value), got.RemoteWorkers, g17(want.Value))
	}
	if n := tw.puts.Load() - 3; n != 0 {
		t.Fatalf("dispatch against a resident head re-sent %d ancestor frames, want 0", n)
	}
}

// TestSiblingFramesKeepTheirOwnAnswers ships one root frame and two child
// frames over it that append different rows. Both children are version 2,
// so a worker cache keyed by version alone would serve one sibling's
// artifacts to the other; each answer must instead match its own local
// evaluation bit for bit, whichever sibling the workers saw first.
func TestSiblingFramesKeepTheirOwnAnswers(t *testing.T) {
	const src = `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	opts := engine.Options{Seed: 7, ShardRows: 256}

	base := dataset.GermanSyn(1000, 7)
	db, model := base.DB, base.Model
	db.SetVersion(1)
	root := NewFrame(db, model)
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatal(err)
	}

	type sibling struct {
		db    *relation.Database
		frame *Frame
		want  *engine.Result
	}
	var sibs []sibling
	for _, seed := range []int64{7, 8} {
		more := dataset.GermanSyn(1300, seed).DB.Relation("German")
		var rows []relation.Tuple
		for i := 1000; i < 1300; i++ {
			rows = append(rows, more.Row(i))
		}
		child, err := db.Extend(map[string][]relation.Tuple{"German": rows})
		if err != nil {
			t.Fatal(err)
		}
		if child.Version() != 2 {
			t.Fatalf("child frame at version %d, want 2", child.Version())
		}
		want, err := engine.EvaluateContext(context.Background(), child, model, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sibs = append(sibs, sibling{child, NewFrameDelta(root, child), want})
	}
	if g17(sibs[0].want.Value) == g17(sibs[1].want.Value) {
		t.Fatalf("both siblings answer %s locally: the test cannot tell them apart", g17(sibs[0].want.Value))
	}

	c, _ := newTestCoordinator(t, newTestWorker(t), newTestWorker(t))
	for round := 1; round <= 2; round++ {
		for i, s := range sibs {
			got, err := c.EvaluateWhatIf(context.Background(), EvalSpec{
				DB: s.db, Model: model, Frame: s.frame, Query: mustParse(t, src), Options: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.RemoteWorkers != 2 {
				t.Fatalf("round %d, sibling %d: evaluated on %d workers, want 2", round, i+1, got.RemoteWorkers)
			}
			if g17(got.Value) != g17(s.want.Value) || g17(got.Sum) != g17(s.want.Sum) || g17(got.Count) != g17(s.want.Count) {
				t.Fatalf("round %d, sibling %d: distributed %s/%s/%s != local %s/%s/%s", round, i+1,
					g17(got.Value), g17(got.Sum), g17(got.Count), g17(s.want.Value), g17(s.want.Sum), g17(s.want.Count))
			}
		}
	}
}
