package engine

// Partial-evaluation goldens: the distributed-execution surface must be
// bit-identical to the in-process path. Every test here evaluates shard
// subsets in freshly constructed "processes" (independent dataset builds,
// separate caches — nothing shared with the reference run) and checks the
// merged result against a plain EvaluateContext to the last bit.

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

func partialDataset(t testing.TB, name string) (*relation.Database, *causal.Model) {
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

func g17(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

// TestPartialMergeParity splits the plan across N simulated worker
// processes, each with its own dataset build, and merges the partials; the
// result must match the single-process evaluation bit for bit, on toy and
// german, across shard granularities and split widths.
func TestPartialMergeParity(t *testing.T) {
	cases := []struct {
		name, ds, query string
		opts            Options
	}{
		{"toy-avg", "toy", toyUse + `
			WHEN Brand = 'Asus'
			UPDATE(Price) = 1.1 * PRE(Price)
			OUTPUT AVG(POST(Rtng))
			FOR PRE(Category) = 'Laptop'`, Options{Seed: 7}},
		{"german-count", "german", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Options{Seed: 7, ShardRows: 128}},
		{"german-for", "german", `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`, Options{Seed: 7, ShardRows: 256}},
		{"german-avg-sampled", "german", `USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`, Options{Seed: 7, SampleSize: 500, ShardRows: 200}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := hyperql.ParseWhatIf(c.query)
			if err != nil {
				t.Fatal(err)
			}
			db, model := partialDataset(t, c.ds)
			want, err := EvaluateContext(context.Background(), db, model, q, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				planShards, viewRows, err := PlanContext(context.Background(), db, model, q, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if viewRows != want.ViewRows {
					t.Fatalf("PlanContext view rows %d != %d", viewRows, want.ViewRows)
				}
				if workers > planShards {
					continue
				}
				// Contiguous split of the plan across `workers` processes.
				var parts []ShardPartial
				var meta PartialMeta
				for w := 0; w < workers; w++ {
					lo := w * planShards / workers
					hi := (w + 1) * planShards / workers
					if lo == hi {
						continue
					}
					ids := make([]int, 0, hi-lo)
					for s := lo; s < hi; s++ {
						ids = append(ids, s)
					}
					// A fresh process: its own dataset build and cache.
					wdb, wmodel := partialDataset(t, c.ds)
					wq, err := hyperql.ParseWhatIf(c.query)
					if err != nil {
						t.Fatal(err)
					}
					wopts := c.opts
					wopts.Cache = NewCache()
					pr, err := EvaluatePartialContext(context.Background(), wdb, wmodel, wq, wopts, ids)
					if err != nil {
						t.Fatal(err)
					}
					if w == 0 {
						meta = pr.Meta
					} else if !meta.Consistent(pr.Meta) {
						t.Fatalf("worker %d meta %+v inconsistent with %+v", w, pr.Meta, meta)
					}
					parts = append(parts, pr.Partials...)
				}
				got, err := MergePartials(meta, parts)
				if err != nil {
					t.Fatal(err)
				}
				if g17(got.Value) != g17(want.Value) || g17(got.Sum) != g17(want.Sum) || g17(got.Count) != g17(want.Count) {
					t.Fatalf("workers=%d: merged value/sum/count %s/%s/%s != local %s/%s/%s",
						workers, g17(got.Value), g17(got.Sum), g17(got.Count),
						g17(want.Value), g17(want.Sum), g17(want.Count))
				}
				if got.EstimatorUsed != want.EstimatorUsed || got.Blocks != want.Blocks ||
					got.Disjuncts != want.Disjuncts || got.UpdatedRows != want.UpdatedRows ||
					got.ShardPlan != want.ShardPlan {
					t.Fatalf("workers=%d: merged metadata diverges: %+v vs %+v", workers, got, want)
				}
			}
		})
	}
}

func TestMergePartialsValidation(t *testing.T) {
	meta := PartialMeta{Plan: 2, Blocks: 3, Agg: "count"}
	ok := []ShardPartial{
		{Shard: 0, MinBlock: 0, Sum: []float64{1}, Cnt: []float64{1}},
		{Shard: 1, MinBlock: 2, Sum: []float64{2}, Cnt: []float64{2}},
	}
	if res, err := MergePartials(meta, ok); err != nil || res.Value != 3 {
		t.Fatalf("valid merge failed: %v %+v", err, res)
	}
	bad := []struct {
		name  string
		parts []ShardPartial
	}{
		{"missing", ok[:1]},
		{"dup", []ShardPartial{ok[0], ok[0]}},
		{"range", []ShardPartial{ok[0], {Shard: 5, Sum: []float64{1}, Cnt: []float64{1}}}},
		{"window", []ShardPartial{ok[0], {Shard: 1, MinBlock: 2, Sum: []float64{1, 1}, Cnt: []float64{1, 1}}}},
		{"arity", []ShardPartial{ok[0], {Shard: 1, Sum: []float64{1, 2}, Cnt: []float64{1}}}},
	}
	for _, b := range bad {
		if _, err := MergePartials(meta, b.parts); err == nil {
			t.Errorf("%s: merge accepted invalid partials", b.name)
		}
	}
	if _, err := MergePartials(PartialMeta{Plan: 2, Blocks: 3, Agg: "median"}, ok); err == nil {
		t.Error("unknown aggregate accepted")
	}

	// Rows that are their own blocks: 3 coded rows, then 2 rows' own values.
	rows := PartialMeta{Plan: 2, Blocks: 5, Agg: "sum", RowsOwnBlocks: true, ViewRows: 5}
	coded := ShardPartial{Shard: 0, Sum: []float64{1, 2}, Cnt: []float64{1, 1}, Codes: []byte{0, 1, 1}, Width: 1}
	perRow := ShardPartial{Shard: 1, Sum: []float64{4, 8}, Cnt: []float64{1, 1}}
	wide := coded
	wide.Codes, wide.Width = []byte{0, 0, 1, 0, 1, 0}, 2
	for _, parts := range [][]ShardPartial{{coded, perRow}, {perRow, wide}} {
		if res, err := MergePartials(rows, parts); err != nil || res.Value != 17 || res.Count != 5 {
			t.Fatalf("valid merge of rows failed: %v %+v", err, res)
		}
	}
	with := func(p ShardPartial, edit func(*ShardPartial)) ShardPartial {
		edit(&p)
		return p
	}
	for _, b := range []struct {
		name  string
		meta  PartialMeta
		parts []ShardPartial
	}{
		{"code past its class count", rows, []ShardPartial{with(coded, func(p *ShardPartial) { p.Codes = []byte{0, 2, 1} }), perRow}},
		{"2-byte code past its class count", rows, []ShardPartial{with(wide, func(p *ShardPartial) { p.Codes = []byte{0, 0, 0, 1, 1, 0} }), perRow}},
		{"half a 2-byte code", rows, []ShardPartial{with(wide, func(p *ShardPartial) { p.Codes = p.Codes[:5] }), perRow}},
		{"3-byte codes", rows, []ShardPartial{with(coded, func(p *ShardPartial) { p.Width = 3 }), perRow}},
		{"codes without a width", rows, []ShardPartial{with(coded, func(p *ShardPartial) { p.Width = 0 }), perRow}},
		{"rows short of the view", rows, []ShardPartial{with(coded, func(p *ShardPartial) { p.Codes = p.Codes[:2] }), perRow}},
		{"coded rows under block windows", meta, []ShardPartial{ok[0], with(coded, func(p *ShardPartial) { p.Shard = 1 })}},
		{"arity of rows", rows, []ShardPartial{coded, with(perRow, func(p *ShardPartial) { p.Cnt = p.Cnt[:1] })}},
	} {
		if _, err := MergePartials(b.meta, b.parts); err == nil {
			t.Errorf("%s: merge accepted invalid partials", b.name)
		}
	}
}

// TestEmptyViewEvaluates pins the empty-relevant-view path: zero rows must
// yield a zero-value result (as before the partial-evaluation refactor),
// not a panic from an empty shard plan.
func TestEmptyViewEvaluates(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "ID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "A", Kind: relation.KindInt, Mutable: true},
		relation.Column{Name: "B", Kind: relation.KindInt, Mutable: true},
	)
	db := relation.NewDatabase()
	db.MustAdd(relation.NewRelation("T", schema))
	q, err := hyperql.ParseWhatIf(`USE T UPDATE(A) = 1 OUTPUT COUNT(B = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateContext(context.Background(), db, nil, q, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 || res.Count != 0 || res.ViewRows != 0 {
		t.Fatalf("empty view: %+v, want zero result", res)
	}
	if _, _, err := PlanContext(context.Background(), db, nil, q, Options{}); err != nil {
		t.Fatalf("PlanContext on empty view: %v", err)
	}
}

// progressLog records Progress reports; a parallel evaluation may call it
// from several goroutines.
type progressLog struct {
	mu      sync.Mutex
	reports [][3]any // stage, done, total
}

func (l *progressLog) report(stage string, done, total int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reports = append(l.reports, [3]any{stage, done, total})
}

// shards checks the "shards" reports: one per shard of want, each out of
// len(want), whose done counts are 1..len(want).
func (l *progressLog) shards(want int) error {
	seen := make([]bool, want+1)
	for _, r := range l.reports {
		if r[0] != "shards" {
			continue
		}
		done, total := r[1].(int), r[2].(int)
		if total != want || done < 1 || done > want || seen[done] {
			return fmt.Errorf("report %v, want each of 1..%d once out of %d: %v", r, want, want, l.reports)
		}
		seen[done] = true
	}
	if slices.Contains(seen[1:], false) {
		return fmt.Errorf("shards reports %v, want 1..%d", l.reports, want)
	}
	return nil
}

// TestEvaluateProgress pins the Progress reports jobs read (shards_done /
// shards_total, tuples): EvaluateContext reports every shard of the plan and
// ends with ("tuples", n, n); EvaluatePartialContext reports exactly the
// shards it was given; and where the producer values more than a stride of
// rows (a view without a class key, at Shards 1), "tuples" advances while it
// runs, before the fold starts, instead of jumping to n at the end.
func TestEvaluateProgress(t *testing.T) {
	ctx := context.Background()
	db, model := partialDataset(t, "german")
	q := mustWhatIf(t, `USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR POST(Credit) = 1 OR PRE(Sex) = 0`)
	for _, shards := range []int{1, 4} {
		var local progressLog
		o := Options{Seed: 7, ShardRows: 128, Shards: shards, Progress: local.report}
		res, err := EvaluateContext(ctx, db, model, q, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := local.shards(res.ShardPlan); err != nil {
			t.Errorf("shards=%d EvaluateContext: %v", shards, err)
		}
		n := res.ViewRows
		if last := local.reports[len(local.reports)-1]; last != [3]any{"tuples", n, n} {
			t.Errorf("shards=%d EvaluateContext: last report %v, want (tuples, %d, %d)", shards, last, n, n)
		}

		var part progressLog
		o.Progress, o.Cache = part.report, NewCache()
		subset := []int{1, 2, 5}
		if _, err := EvaluatePartialContext(ctx, db, model, q, o, subset); err != nil {
			t.Fatal(err)
		}
		if err := part.shards(len(subset)); err != nil {
			t.Errorf("shards=%d EvaluatePartialContext(%v): %v", shards, subset, err)
		}
	}

	// One 600-row shard of a view without a class key: every row is valued,
	// and a mid-way report must come while they are, before the fold starts.
	db, model = classWorld("highcard")
	q = mustWhatIf(t, `USE T WHEN G >= 1 UPDATE(X) = 2 OUTPUT AVG(POST(Y))`)
	var live progressLog
	var midAt atomic.Int64 // unix µs of the first report with 0 < done < total
	o := Options{Seed: 7, ShardRows: 1024, Shards: 1, Progress: func(stage string, done, total int) {
		if stage == "tuples" && done > 0 && done < total {
			midAt.CompareAndSwap(0, time.Now().UnixMicro())
		}
		live.report(stage, done, total)
	}}
	if p, err := Prepare(ctx, db, model, q, o); err != nil || p.keyed {
		t.Fatalf("highcard: keyed=%v, err %v: want every row its own class", p != nil && p.keyed, err)
	}
	tr := obs.NewTrace("whatif")
	res, err := EvaluateContext(tr.Context(ctx), db, model, q, o)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	foldAt := int64(-1)
	for _, c := range tr.Root().JSON().Children {
		if c.Name == "fold" {
			foldAt = c.StartUnixUs
		}
	}
	n := res.ViewRows
	if n <= stride || midAt.Load() == 0 || midAt.Load() >= foldAt || live.reports[len(live.reports)-1] != [3]any{"tuples", n, n} {
		t.Errorf("%d rows valued row by row: first report with 0 < done < %d at %d µs, fold started at %d µs; reports %v, want one before the fold and (tuples, %d, %d) last",
			n, n, midAt.Load(), foldAt, live.reports, n, n)
	}
}
