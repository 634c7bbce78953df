package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// preparedCase is a what-if prepared once and evaluated under several
// updates of its attributes: each variant is a whole query, which
// EvaluateContext answers alone.
type preparedCase struct {
	name     string
	dataset  string // "german", "amazon"
	opts     Options
	prepared string
	variants []string
}

var preparedCases = []preparedCase{
	{"set, scale and shift", "german", Options{Seed: 7},
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, []string{
			`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Status) = 0 OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Status) = 2 * PRE(Status) OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Status) = 1 + PRE(Status) OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Status) = 1 * PRE(Status) OUTPUT COUNT(Credit = 1)`,
		}},
	{"FOR post literals: lazy fits in the loop", "german", Options{Seed: 7},
		`USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Age) = 0`, []string{
			`USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Age) = 0`,
			`USE German WHEN Age >= 1 UPDATE(Status) = 1 OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Age) = 0`,
			`USE German WHEN Age >= 1 UPDATE(Status) = 2 + PRE(Status) OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Age) = 0`,
		}},
	{"two attributes", "german", Options{Seed: 7, Mode: ModeNB},
		`USE German WHEN Sex = 1 UPDATE(Status) = 3 AND UPDATE(Savings) = 1 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`, []string{
			`USE German WHEN Sex = 1 UPDATE(Status) = 3 AND UPDATE(Savings) = 1 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
			`USE German WHEN Sex = 1 UPDATE(Status) = 0 AND UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
		}},
	{"sampled: forest fallback", "german", Options{Seed: 7, SampleSize: 500},
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, []string{
			`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Status) = 1 OUTPUT COUNT(Credit = 1)`,
		}},
	{"Amazon: ψ summaries", "amazon", Options{Seed: 7},
		amazonUse + ` WHEN Category = 'Laptop' UPDATE(Price) = 0.90 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`, []string{
			amazonUse + ` WHEN Category = 'Laptop' UPDATE(Price) = 0.90 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`,
			amazonUse + ` WHEN Category = 'Laptop' UPDATE(Price) = 1.2 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`,
			amazonUse + ` WHEN Category = 'Laptop' UPDATE(Price) = 500 OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`,
			amazonUse + ` WHEN Category = 'Laptop' UPDATE(Price) = 50 + PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`,
		}},
	{"64 rows a shard: many block windows", "german", Options{Seed: 7, ShardRows: 64},
		`USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT SUM(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Sex) = 0`, []string{
			`USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT SUM(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Sex) = 0`,
			`USE German WHEN Age >= 1 UPDATE(Status) = 0 OUTPUT SUM(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Sex) = 0`,
			`USE German WHEN Age >= 1 UPDATE(Status) = 1 + PRE(Status) OUTPUT SUM(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Sex) = 0`,
		}},
	{"classes over multi-row blocks", "psi", Options{Seed: 3, ShardRows: 128},
		`USE T WHEN S = 'a' UPDATE(X) = 1 + PRE(X) OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`, []string{
			`USE T WHEN S = 'a' UPDATE(X) = 1 + PRE(X) OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`,
			`USE T WHEN S = 'a' UPDATE(X) = 2 OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`,
			`USE T WHEN S = 'a' UPDATE(X) = 0 OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`,
		}},
}

func preparedData(name string) (*relation.Database, *causal.Model) {
	switch name {
	case "amazon":
		a := dataset.AmazonSyn(300, 6, 7)
		return a.DB, a.Model
	case "psi":
		return classWorld(name)
	}
	g := dataset.GermanSyn(1000, 7)
	return g.DB, g.Model
}

func mustWhatIf(t testing.TB, src string) *hyperql.WhatIf {
	t.Helper()
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return q
}

// diffResults compares what a bound evaluation must share with the query
// evaluated alone: the answer's bits and the decisions behind it.
func diffResults(got, want *Result) error {
	switch {
	case !bitsEqual(got.Value, want.Value) || !bitsEqual(got.Sum, want.Sum) || !bitsEqual(got.Count, want.Count):
		return fmt.Errorf("value/sum/count %v/%v/%v, alone %v/%v/%v", got.Value, got.Sum, got.Count, want.Value, want.Sum, want.Count)
	case !slices.Equal(got.Backdoor, want.Backdoor) || got.EstimatorUsed != want.EstimatorUsed:
		return fmt.Errorf("backdoor %v estimator %s, alone %v %s", got.Backdoor, got.EstimatorUsed, want.Backdoor, want.EstimatorUsed)
	case got.UpdatedRows != want.UpdatedRows || got.Blocks != want.Blocks || got.ShardPlan != want.ShardPlan:
		return fmt.Errorf("updated/blocks/plan %d/%d/%d, alone %d/%d/%d", got.UpdatedRows, got.Blocks, got.ShardPlan, want.UpdatedRows, want.Blocks, want.ShardPlan)
	}
	return nil
}

// TestPreparedMatchesEvaluate: every update bound to one Prepared answers
// what EvaluateContext answers for that query alone, to the bit, at any
// fan-out — including the updates whose support sends the frequency
// estimator to the forest and the ψ means that move with the update — in
// both of the fold's regimes: rows that are their own blocks (added straight
// into the totals) and block windows over multi-row blocks.
func TestPreparedMatchesEvaluate(t *testing.T) {
	fallbacks := 0
	folds := map[string]int{} // which regime the fold takes -> cases
	for _, c := range preparedCases {
		db, model := preparedData(c.dataset)
		for _, shards := range []int{1, 4} {
			o := c.opts
			o.Shards, o.Cache = shards, NewCache()
			p, err := Prepare(context.Background(), db, model, mustWhatIf(t, c.prepared), o)
			if err != nil {
				t.Fatalf("%s: prepare: %v", c.name, err)
			}
			if p.rowsOwnBlocks() {
				folds["rows their own blocks"]++
			} else {
				folds["windows over multi-row blocks"]++
			}
			for _, src := range c.variants {
				q := mustWhatIf(t, src)
				alone := c.opts
				alone.Shards = shards
				want, err := EvaluateContext(context.Background(), db, model, q, alone)
				if err != nil {
					t.Fatalf("%s: %s: %v", c.name, src, err)
				}
				got, err := p.Evaluate(context.Background(), q.Updates, o)
				if err != nil {
					t.Fatalf("%s: %s: bound: %v", c.name, src, err)
				}
				if err := diffResults(got, want); err != nil {
					t.Errorf("%s shards=%d: %s: %v", c.name, shards, src, err)
				}
				if c.opts.Estimator != EstimatorForest && want.EstimatorUsed == "forest" && c.dataset == "german" {
					fallbacks++
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Error("no German variant fell back to the forest; the test proved nothing about the fallback")
	}
	if folds["rows their own blocks"] == 0 || folds["windows over multi-row blocks"] == 0 {
		t.Errorf("fold regimes taken %v: want rows their own blocks and windows over multi-row blocks covered", folds)
	}

	// The attributes are the Prepared's: another set, another order or none
	// is an error, not a silently different estimator.
	g := dataset.GermanSyn(500, 7)
	p, err := Prepare(context.Background(), g.DB, g.Model,
		mustWhatIf(t, `USE German UPDATE(Status) = 3 AND UPDATE(Savings) = 1 OUTPUT COUNT(Credit = 1)`), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`USE German UPDATE(Savings) = 1 AND UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Status) = 3 AND UPDATE(Housing) = 1 OUTPUT COUNT(Credit = 1)`,
	} {
		_, err := p.Evaluate(context.Background(), mustWhatIf(t, src).Updates, Options{})
		if err == nil || !strings.Contains(err.Error(), "prepared for updates of [Status Savings]") {
			t.Errorf("%s: err = %v, want the prepared attributes named", src, err)
		}
	}
	if _, err := p.Evaluate(context.Background(), nil, Options{}); err == nil {
		t.Error("no updates: want an error")
	}
}

// TestPreparedEvaluateAllocationFlat: a warm Evaluate over German-Syn, whose
// rows are each a block of their own, folds through its tuple classes, so
// what it allocates follows the classes, not the rows: it may grow by at most
// half from 5,000 to 25,000 rows. (Per-shard block windows cost 16 B a row.)
func TestPreparedEvaluateAllocationFlat(t *testing.T) {
	q := mustWhatIf(t, `USE German UPDATE(Status) = 2 OUTPUT COUNT(Credit = 1)`)
	warmBytes := func(rows int) uint64 {
		g := dataset.GermanSyn(rows, 7)
		o := Options{Seed: 7, Shards: 1, Cache: NewCache()}
		p, err := Prepare(context.Background(), g.DB, g.Model, q, o)
		if err != nil {
			t.Fatal(err)
		}
		var least uint64 = math.MaxUint64
		var before, after runtime.MemStats
		for range 5 { // the first call builds the partition, the set and its models
			runtime.ReadMemStats(&before)
			if _, err := p.Evaluate(context.Background(), q.Updates, o); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := warmBytes(5000), warmBytes(25000)
	t.Logf("warm Evaluate allocates %d B over 5,000 rows, %d B over 25,000", small, large)
	if float64(large) > 1.5*float64(small) {
		t.Errorf("warm Evaluate allocates %d B over 5,000 rows and %d B over 25,000: it grows with the rows", small, large)
	}
}

// TestEvaluateContextAllocationFlat: a warm EvaluateContext over German-Syn
// prepares on every call, so it allocates a WHEN set and a class partition
// (a byte a row each) afresh, but its evaluation allocates no per-row
// windows: from 5,000 to 25,000 rows it may grow by at most 4 B per added
// row. (Per-shard block windows cost 16 B a row.)
func TestEvaluateContextAllocationFlat(t *testing.T) {
	q := mustWhatIf(t, `USE German UPDATE(Status) = 2 OUTPUT COUNT(Credit = 1)`)
	warmBytes := func(rows int) uint64 {
		g := dataset.GermanSyn(rows, 7)
		o := Options{Seed: 7, Shards: 1, Cache: NewCache()}
		var least uint64 = math.MaxUint64
		var before, after runtime.MemStats
		for range 5 { // the first call fills the cache: view, blocks, set, models
			runtime.ReadMemStats(&before)
			if _, err := EvaluateContext(context.Background(), g.DB, g.Model, q, o); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := warmBytes(5000), warmBytes(25000)
	perRow := (float64(large) - float64(small)) / 20000
	t.Logf("warm EvaluateContext allocates %d B over 5,000 rows, %d B over 25,000 (%.1f B per added row)", small, large, perRow)
	if perRow > 4 {
		t.Errorf("warm EvaluateContext allocates %d B over 5,000 rows and %d B over 25,000: %.1f B per added row, want at most 4", small, large, perRow)
	}
}

// TestPartialUnkeyedAllocation: a warm EvaluatePartialContext over an
// Amazon-Syn view with no class key (a continuous Price: every row its own
// class), through a plan of one shard, values every row. A row's value is
// tuple()'s (sum, count), 16 B, and tuple() allocates about 24 B more a row
// (16 B of it the FOR literal's boxed row environment), so from 1,000 to 4,000 products what
// it allocates may grow by at most 44 B per added row. (A value that also
// carried the labeler's seen mark made it 49 B.)
func TestPartialUnkeyedAllocation(t *testing.T) {
	q := mustWhatIf(t, amazonUse+` WHEN Category = 'Laptop' UPDATE(Price) = 0.90 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`)
	warmBytes := func(products int) (uint64, int) {
		a := dataset.AmazonSyn(products, 6, 7)
		o := Options{Seed: 7, Shards: 1, ShardRows: 1 << 20, Cache: NewCache()}
		plan, rows, err := PlanContext(context.Background(), a.DB, a.Model, q, o)
		if err != nil {
			t.Fatal(err)
		}
		if plan != 1 {
			t.Fatalf("a plan of %d shards over %d rows, want one", plan, rows)
		}
		key := preparedKey(a.DB, q, o.withDefaults())
		var least uint64 = math.MaxUint64
		var before, after runtime.MemStats
		for range 5 { // the first call prepares, and fits the set and its models
			runtime.ReadMemStats(&before)
			if _, err := EvaluatePartialContext(context.Background(), a.DB, a.Model, q, o, []int{0}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if held, _ := o.Cache.Peek(key); held == nil || held.(*Prepared).keyed {
			t.Fatal("the view has a class key, or no Prepared is cached; the test proved nothing")
		}
		return least, rows
	}
	small, smallRows := warmBytes(1000)
	large, largeRows := warmBytes(4000)
	perRow := (float64(large) - float64(small)) / float64(largeRows-smallRows)
	t.Logf("warm EvaluatePartialContext allocates %d B over %d rows, %d B over %d (%.1f B per added row)", small, smallRows, large, largeRows, perRow)
	if perRow > 44 {
		t.Errorf("warm EvaluatePartialContext allocates %d B over %d rows and %d B over %d: %.1f B per added row, want at most 44",
			small, smallRows, large, largeRows, perRow)
	}
}

// TestPreparedConcurrentEvaluate: many goroutines bind updates to one
// Prepared at once — the partition is built once, the estimator sets and
// lazy fits single-flight — and every answer is the serial one. Run under
// -race.
func TestPreparedConcurrentEvaluate(t *testing.T) {
	for _, c := range []preparedCase{preparedCases[1], preparedCases[0], preparedCases[4]} {
		db, model := preparedData(c.dataset)
		o := c.opts
		o.Shards, o.Cache = 2, NewCache()
		p, err := Prepare(context.Background(), db, model, mustWhatIf(t, c.prepared), o)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*Result, len(c.variants))
		for i, src := range c.variants {
			if want[i], err = EvaluateContext(context.Background(), db, model, mustWhatIf(t, src), c.opts); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range c.variants {
					i := (g + k) % len(c.variants)
					got, err := p.Evaluate(context.Background(), mustWhatIf(t, c.variants[i]).Updates, o)
					if err != nil {
						t.Error(err)
						return
					}
					if err := diffResults(got, want[i]); err != nil {
						t.Errorf("%s goroutine %d: %s: %v", c.name, g, c.variants[i], err)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestPreparedEvaluatePerCall: a Prepared kept in the cache holds no
// caller's execution knobs. Prepare on the same cache returns the same
// Prepared, its prepare span reading cache_hit: true. Two concurrent
// Evaluate calls on it with Shards 1 and 3 and callbacks of their own answer
// a third call's bits, each runs on its own fan-out (the eval_shards
// workers), and each callback hears exactly what the third call's heard.
// Run under -race.
func TestPreparedEvaluatePerCall(t *testing.T) {
	ctx := context.Background()
	c := preparedCases[5] // 64-row shards: a plan of many shards
	db, model := preparedData(c.dataset)
	q := mustWhatIf(t, c.prepared)
	o := c.opts
	o.Cache = NewCache()
	p, err := Prepare(ctx, db, model, q, o)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("prepare again")
	again, err := Prepare(tr.Context(ctx), db, model, q, o)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if prep := spanNamed(tr.Root().JSON(), "prepare"); again != p || prep == nil || prep.Attrs["cache_hit"] != true {
		t.Fatalf("the second Prepare is not the cached Prepared (same %v): %s", again == p, obs.Skeleton(tr.Root().JSON()))
	}
	var soloHeard atomic.Int64
	solo := o
	solo.Shards, solo.Progress = 2, func(string, int, int) { soloHeard.Add(1) }
	want, err := p.Evaluate(ctx, q.Updates, solo)
	if err != nil {
		t.Fatal(err)
	}
	if soloHeard.Load() == 0 {
		t.Fatal("the solo call's Progress heard nothing")
	}
	var heard [2]atomic.Int64
	var wg sync.WaitGroup
	for i, shards := range []int{1, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call := o
			call.Shards, call.Progress = shards, func(string, int, int) { heard[i].Add(1) }
			tr := obs.NewTrace("call")
			got, err := p.Evaluate(tr.Context(ctx), q.Updates, call)
			tr.Finish()
			if err != nil {
				t.Error(err)
				return
			}
			if err := diffResults(got, want); err != nil {
				t.Errorf("Shards=%d: %v", shards, err)
			}
			es := spanNamed(tr.Root().JSON(), "eval_shards")
			if w, _ := es.Attrs["workers"].(int64); int(w) != shards {
				t.Errorf("the call with Shards=%d ran on %v workers", shards, es.Attrs["workers"])
			}
		}()
	}
	wg.Wait()
	if h1, h2, solo := heard[0].Load(), heard[1].Load(), soloHeard.Load(); h1 != solo || h2 != solo {
		t.Errorf("the concurrent calls' callbacks heard %d and %d updates, the solo call's %d", h1, h2, solo)
	}
}

// refFoldPartials is the per-block fold, written out: every partial into
// per-block sums, then the blocks in order.
func refFoldPartials(res *Result, parts []ShardPartial, nBlocks int, agg hyperql.AggFunc) {
	sumByBlock := make([]float64, nBlocks)
	cntByBlock := make([]float64, nBlocks)
	for _, p := range parts {
		for j, ps := range p.Sum {
			sumByBlock[p.MinBlock+j] += ps
			cntByBlock[p.MinBlock+j] += p.Cnt[j]
		}
	}
	for b := 0; b < nBlocks; b++ {
		res.Sum += sumByBlock[b]
		res.Count += cntByBlock[b]
	}
	switch agg {
	case hyperql.AggCount:
		res.Value = res.Count
	case hyperql.AggSum:
		res.Value = res.Sum
	case hyperql.AggAvg:
		if res.Count > 0 {
			res.Value = res.Sum / res.Count
		}
	}
}

// sameFloat is bit equality, except that every NaN equals every NaN: Go
// leaves which operand's payload an add keeps where two NaNs meet to the
// compiler, and the per-block fold itself keeps one in a plain build and the
// other under -race.
func sameFloat(a, b float64) bool { return bitsEqual(a, b) || a != a && b != b }

// TestFoldPartialsDisjointMatchesPerBlock fuzzes block windows — disjoint
// ones, gaps, empty shards, overlaps — over addends that include ±0, NaN
// payloads and ±Inf, delivers them to MergePartials in a shuffled arrival
// order, and holds its fold (foldWindows, which a local evaluation's windows
// also take) to the per-block reference in plan order on the bits of Sum,
// Count and Value under every aggregate (-0 included; NaN payloads aside).
// The draws cover windows that all add straight through, windows that wait
// from the first, and a first window that adds straight through before a
// later one waits.
func TestFoldPartialsDisjointMatchesPerBlock(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, 1, -1, 0.1, 3}
	rng := rand.New(rand.NewSource(7))
	draw := func() float64 {
		if rng.Intn(2) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	disjoint, mixed := 0, 0
	for iter := 0; iter < 20000; iter++ {
		nBlocks := 1 + rng.Intn(12)
		var parts []ShardPartial
		next := 0
		for s := 0; s < rng.Intn(5)+1; s++ {
			if rng.Intn(5) == 0 {
				parts = append(parts, ShardPartial{Shard: s}) // empty shard
				continue
			}
			lo := next + rng.Intn(3) // a gap of 0-2 blocks
			if rng.Intn(6) == 0 {
				lo = rng.Intn(nBlocks) // anywhere: may overlap
			}
			if lo >= nBlocks {
				break
			}
			n := 1 + rng.Intn(nBlocks-lo)
			p := ShardPartial{Shard: s, MinBlock: lo, Sum: make([]float64, n), Cnt: make([]float64, n)}
			for j := range n {
				p.Sum[j], p.Cnt[j] = draw(), draw()
			}
			parts = append(parts, p)
			next = max(next, lo+n)
		}
		if len(parts) == 0 {
			continue // no plan to merge
		}
		if disjointWindows(parts) {
			disjoint++
		} else if firstStraight(parts) {
			mixed++
		}
		arrived := slices.Clone(parts)
		rng.Shuffle(len(arrived), func(i, j int) { arrived[i], arrived[j] = arrived[j], arrived[i] })
		for _, agg := range []hyperql.AggFunc{hyperql.AggCount, hyperql.AggSum, hyperql.AggAvg} {
			var want Result
			got, err := MergePartials(PartialMeta{Plan: len(parts), Blocks: nBlocks, Agg: aggName(agg)}, arrived)
			if err != nil {
				t.Fatal(err)
			}
			refFoldPartials(&want, parts, nBlocks, agg)
			if !sameFloat(got.Sum, want.Sum) || !sameFloat(got.Count, want.Count) || !sameFloat(got.Value, want.Value) {
				t.Fatalf("%s over %d blocks, windows %v: sum/count/value %x/%x/%x, per block %x/%x/%x", agg, nBlocks, parts,
					math.Float64bits(got.Sum), math.Float64bits(got.Count), math.Float64bits(got.Value),
					math.Float64bits(want.Sum), math.Float64bits(want.Count), math.Float64bits(want.Value))
			}
		}
	}
	if disjoint < 10000 || disjoint == 20000 || mixed < 100 {
		t.Fatalf("%d of 20000 draws disjoint, %d straight then waiting: the fuzz missed a shape", disjoint, mixed)
	}
}

// firstStraight reports whether the first non-empty window ends at or before
// the first block of every later non-empty window.
func firstStraight(parts []ShardPartial) bool {
	end := -1
	for _, p := range parts {
		switch {
		case len(p.Sum) == 0:
		case end < 0:
			end = p.MinBlock + len(p.Sum)
		case p.MinBlock < end:
			return false
		}
	}
	return true
}

// disjointWindows reports whether the partials' block windows ascend
// without overlapping, empty partials aside.
func disjointWindows(parts []ShardPartial) bool {
	next := 0
	for _, p := range parts {
		if len(p.Sum) == 0 {
			continue
		}
		if p.MinBlock < next {
			return false
		}
		next = p.MinBlock + len(p.Sum)
	}
	return true
}
