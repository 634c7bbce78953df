package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// skewedWorld is 2,000 rows whose first 900 each hold a value of F of their
// own and whose rest share F = 0: under ShardRows 500 the first shard's rows
// are a class each, so codes do not pay there, the second references
// nearly 500 classes (2-byte codes) and the last two a handful (1-byte).
func skewedWorld(t testing.TB) (*relation.Database, *causal.Model) {
	t.Helper()
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
	db := relation.NewDatabase()
	db.MustAdd(rel)
	model := causal.NewModel()
	model.AddEdge("T.F", "T.X")
	model.AddEdge("T.F", "T.Y")
	model.AddEdge("T.X", "T.Y")
	return db, model
}

// layoutShape is a keyed shape with a small plan.
type layoutShape struct {
	name      string
	db        *relation.Database
	model     *causal.Model
	q         *hyperql.WhatIf
	opts      Options
	own       bool         // every view row is a block of its own
	widths    map[int]bool // the code widths its partials must show
	planShard int
}

// layoutShapes are keyed shapes whose shards cover every layout: 1-byte
// codes over German-Syn, every code width and rows that go as their own
// values (skewedWorld), and block windows, where a layout only lists the
// classes a shard subset values.
func layoutShapes(t testing.TB) []layoutShape {
	g := dataset.GermanSyn(1000, 7)
	skewed, skewedModel := skewedWorld(t)
	psi, psiModel := classWorld("psi")
	return []layoutShape{
		{"german, 1-byte codes", g.DB, g.Model,
			mustWhatIf(t, `USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Sex) = 0`),
			Options{Seed: 7, ShardRows: 256}, true, map[int]bool{1: true}, 4},
		{"where codes do not pay", skewed, skewedModel, mustWhatIf(t, `USE T UPDATE(X) = 1 OUTPUT AVG(POST(Y))`),
			Options{Seed: 7, ShardRows: 500}, true, map[int]bool{0: true, 1: true, 2: true}, 4},
		{"block windows", psi, psiModel,
			mustWhatIf(t, `USE T WHEN S = 'a' UPDATE(X) = 1 + PRE(X) OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`),
			Options{Seed: 3, ShardRows: 128}, false, map[int]bool{0: true}, 5},
	}
}

// layoutsBuilt is what a traced partial evaluation's eval_shards stage read
// for layouts_built (-1: no such attribute).
func layoutsBuilt(t testing.TB, root *obs.SpanJSON) int {
	t.Helper()
	es := spanNamed(root, "eval_shards")
	if es == nil {
		t.Fatalf("no eval_shards stage: %s", obs.Skeleton(root))
	}
	n, ok := es.Attrs["layouts_built"].(int64)
	if !ok {
		return -1
	}
	return int(n)
}

// TestPartialLayoutRepeat: a cached Prepared lays each plan shard out once
// and every later partial evaluation reuses the layout. Over keyed shapes at
// every code width, with rows that go as their own values, and with block
// windows, every non-empty shard subset, listed ascending and descending, is
// evaluated twice on one cache shared by all subsets, and once uncached: the
// second call builds no layout and returns the partials of the first and of
// the uncached evaluation in every bit and byte, and its rows' or windows'
// values are those of an evaluation with every row its own class, which has
// no layouts. Over the whole run each shard's layout is built exactly once.
func TestPartialLayoutRepeat(t *testing.T) {
	ctx := context.Background()
	for _, c := range layoutShapes(t) {
		shared := c.opts
		shared.Cache = NewCache()
		p, err := Prepare(ctx, c.db, c.model, c.q, shared)
		if err != nil {
			t.Fatal(err)
		}
		if k := p.plan.Shards(); !p.keyed || k != c.planShard || p.rowsOwnBlocks() != c.own {
			t.Fatalf("%s: keyed %v, %d shards, rows their own blocks %v; the test proves nothing",
				c.name, p.keyed, k, p.rowsOwnBlocks())
		}
		built, widths := 0, map[int]bool{}
		for mask := 1; mask < 1<<c.planShard; mask++ {
			var ids []int
			for s := range c.planShard {
				if mask&(1<<s) != 0 {
					ids = append(ids, s)
				}
			}
			for _, order := range [][]int{ids, reversed(ids)} {
				first, root, _ := partialTraced(t, ctx, c.db, c.model, c.q, shared, order)
				built += layoutsBuilt(t, root)
				again, root, _ := partialTraced(t, ctx, c.db, c.model, c.q, shared, order)
				if n := layoutsBuilt(t, root); n != 0 {
					t.Errorf("%s: shards %v: the repeat built %d layouts", c.name, order, n)
				}
				uncached, err := EvaluatePartialContext(ctx, c.db, c.model, c.q, c.opts, order)
				if err != nil {
					t.Fatal(err)
				}
				if err := diffPartials(again, first); err != nil {
					t.Errorf("%s: shards %v: repeat against first: %v", c.name, order, err)
				}
				if err := diffPartials(again, uncached); err != nil {
					t.Errorf("%s: shards %v: repeat against uncached: %v", c.name, order, err)
				}
				perRowOpts := c.opts
				perRowOpts.Cache = NewCache()
				perRow := runClassEval(c.db, c.model, c.q, perRowOpts, order, true)
				got := classRun{parts: again.Partials, meta: again.Meta}
				got.meta.TrainedModels, perRow.meta.TrainedModels = 0, 0
				if err := diffClassRuns(got, perRow, bitsEqual); err != nil {
					t.Errorf("%s: shards %v: repeat against every row its own class: %v", c.name, order, err)
				}
				for _, w := range again.Partials {
					widths[w.Width] = true
				}
			}
		}
		if built != c.planShard {
			t.Errorf("%s: %d layouts built over %d plan shards", c.name, built, c.planShard)
		}
		for w := range c.widths {
			if !widths[w] {
				t.Errorf("%s: no partial went at code width %d; the test proved less than it says", c.name, w)
			}
		}
	}
}

// allBut lists the shards of a plan of k but skip.
func allBut(k, skip int) []int {
	var ids []int
	for s := range k {
		if s != skip {
			ids = append(ids, s)
		}
	}
	return ids
}

func reversed(ids []int) []int {
	out := make([]int, len(ids))
	for i, s := range ids {
		out[len(ids)-1-i] = s
	}
	return out
}

// TestPartialLayoutsBuiltOnce: concurrent first partial evaluations of one
// shape on one cache, each over every shard but one (caller i leaves out
// shard i mod the plan, so a shard subset values from its layouts in either
// fold regime), build each shard's layout exactly once between them (the
// layouts_built of their eval_shards stages add up to the plan's shards)
// and answer a fresh cache's partials. Run under -race.
func TestPartialLayoutsBuiltOnce(t *testing.T) {
	ctx := context.Background()
	for _, c := range layoutShapes(t) {
		o := c.opts
		o.Cache = NewCache()
		const callers = 6
		results := make([]*PartialResult, callers)
		built := make([]int, callers)
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var root *obs.SpanJSON
				results[i], root, _ = partialTraced(t, ctx, c.db, c.model, c.q, o, allBut(c.planShard, i%c.planShard))
				built[i] = layoutsBuilt(t, root)
			}()
		}
		wg.Wait()
		sum := 0
		for i, n := range built {
			sum += n
			fresh := c.opts
			fresh.Cache = NewCache()
			want, err := EvaluatePartialContext(ctx, c.db, c.model, c.q, fresh, allBut(c.planShard, i%c.planShard))
			if err != nil {
				t.Fatal(err)
			}
			if err := diffPartials(results[i], want); err != nil {
				t.Errorf("%s: caller %d: %v", c.name, i, err)
			}
		}
		if sum != c.planShard {
			t.Errorf("%s: concurrent first calls built %v layouts, want %d between them", c.name, built, c.planShard)
		}
	}
}

// TestSupportCheckReused: bind keeps its last support check. On a German
// shape whose freq estimator set is checked for support, a repeated update
// answers from the kept check and a different update samples afresh, and
// every check reads the fraction, and decides the estimator, as a fresh
// cache does; only the last check is kept.
func TestSupportCheckReused(t *testing.T) {
	ctx := context.Background()
	db, model := preparedData("german")
	const shape = `USE German UPDATE(Status) = %s OUTPUT COUNT(Credit = 1)`
	o := Options{Seed: 7, SampleSize: 500, Cache: NewCache()}
	train := func(o Options, update string) (frac float64, cached bool, est string) {
		t.Helper()
		q := mustWhatIf(t, fmt.Sprintf(shape, update))
		p, err := Prepare(ctx, db, model, q, o)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("eval")
		res, err := p.Evaluate(tr.Context(ctx), q.Updates, o)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		sp := spanNamed(tr.Root().JSON(), "train")
		frac, ok := sp.Attrs["support"].(float64)
		if !ok {
			t.Fatalf("%s: the train stage reads no support: %v", update, sp.Attrs)
		}
		cached, _ = sp.Attrs["support_cached"].(bool)
		return frac, cached, res.EstimatorUsed
	}
	fallbacks := 0
	for i, step := range []struct {
		update string
		cached bool
	}{
		{"3", false}, {"3", true}, {"1", false}, {"1", true}, {"3", false}, {"2 * PRE(Status)", false}, {"2 * PRE(Status)", true},
	} {
		frac, cached, est := train(o, step.update)
		if cached != step.cached {
			t.Errorf("step %d, UPDATE(Status) = %s: support_cached %v, want %v", i, step.update, cached, step.cached)
		}
		fresh := o
		fresh.Cache = NewCache()
		wantFrac, _, wantEst := train(fresh, step.update)
		if frac != wantFrac || est != wantEst {
			t.Errorf("step %d, UPDATE(Status) = %s: support %v chose %s, a fresh cache %v chose %s",
				i, step.update, frac, est, wantFrac, wantEst)
		}
		if est == "forest" {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Error("no update fell back to the forest; the test proved nothing about the decision")
	}
}
