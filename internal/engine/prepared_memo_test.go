package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
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

// partialTraced runs EvaluatePartialContext under a fresh trace and returns
// its result, its span tree and whether its prepare stage hit the cache.
func partialTraced(t *testing.T, ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.WhatIf, o Options, shards []int) (*PartialResult, *obs.SpanJSON, bool) {
	t.Helper()
	tr := obs.NewTrace("eval")
	pr, err := EvaluatePartialContext(tr.Context(ctx), db, model, q, o, shards)
	if err != nil {
		t.Fatalf("%s shards %v: %v", q, shards, err)
	}
	tr.Finish()
	root := tr.Root().JSON()
	prep := spanNamed(root, "prepare")
	if prep == nil {
		t.Fatalf("no prepare stage: %s", obs.Skeleton(root))
	}
	return pr, root, prep.Attrs["cache_hit"] == true
}

// diffPartials compares two partial results bit for bit: the partials and
// every PartialMeta field but TrainedModels, which counts the fits of an
// estimator set shared with earlier calls.
func diffPartials(got, want *PartialResult) error {
	gm, wm := got.Meta, want.Meta
	gm.TrainedModels, wm.TrainedModels = 0, 0
	if !reflect.DeepEqual(gm, wm) {
		return fmt.Errorf("meta %+v, want %+v", gm, wm)
	}
	if len(got.Partials) != len(want.Partials) {
		return fmt.Errorf("%d partials, want %d", len(got.Partials), len(want.Partials))
	}
	for i, g := range got.Partials {
		w := want.Partials[i]
		if g.Shard != w.Shard || g.MinBlock != w.MinBlock || g.Width != w.Width || !bytes.Equal(g.Codes, w.Codes) ||
			!slices.EqualFunc(g.Sum, w.Sum, bitsEqual) || !slices.EqualFunc(g.Cnt, w.Cnt, bitsEqual) {
			return fmt.Errorf("shard %d: window %d+%d, %d-byte codes %d, want shard %d window %d+%d, %d-byte codes %d, or different bits",
				g.Shard, g.MinBlock, len(g.Sum), g.Width, len(g.Codes), w.Shard, w.MinBlock, len(w.Sum), w.Width, len(w.Codes))
		}
	}
	return nil
}

// preparedKeys lists the Prepared entries of c.
func preparedKeys(c *Cache) []string {
	var keys []string
	for _, k := range c.Keys() {
		if strings.HasPrefix(k, kindPrepared) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPartialPreparedMemo: EvaluatePartialContext keeps its Prepared in the
// cache and, on a hit, only binds the update. Over preparedCases every
// variant (another update of the same attributes) at the shard subsets
// {all}, {0} and {last} is answered from one cache, the first call a miss
// and the rest hits, with the partials and PartialMeta of a fresh cache bit
// for bit. A query that differs from a cached one only in a WHEN, FOR or
// OUTPUT literal, an update attribute or a semantic option misses and
// answers what a fresh cache answers; a preparation that fails or is
// cancelled caches nothing.
func TestPartialPreparedMemo(t *testing.T) {
	ctx := context.Background()
	for _, c := range preparedCases {
		db, model := preparedData(c.dataset)
		shared := c.opts
		shared.Cache = NewCache()
		first := true
		for _, src := range c.variants {
			q := mustWhatIf(t, src)
			plan, _, err := PlanContext(ctx, db, model, q, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int, plan)
			for i := range all {
				all[i] = i
			}
			for _, ids := range [][]int{all, {0}, {plan - 1}} {
				got, _, hit := partialTraced(t, ctx, db, model, q, shared, ids)
				if hit == first {
					t.Errorf("%s: %s shards %v: cache hit %v, want %v", c.name, src, ids, hit, !first)
				}
				first = false
				fresh := c.opts
				fresh.Cache = NewCache()
				want, _, _ := partialTraced(t, ctx, db, model, q, fresh, ids)
				if err := diffPartials(got, want); err != nil {
					t.Errorf("%s: %s shards %v: cached Prepared: %v", c.name, src, ids, err)
				}
			}
		}
		if n := len(preparedKeys(shared.Cache)); n != 1 {
			t.Errorf("%s: %d Prepared entries for one shape, want 1", c.name, n)
		}
	}

	// Every sibling of base is another Prepared.
	db, model := preparedData("german")
	const base = `USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 0`
	baseOpts := Options{Seed: 7}
	siblings := []struct {
		name, src string
		opts      Options
	}{
		{"WHEN literal", `USE German WHEN Age >= 2 UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 0`, baseOpts},
		{"FOR literal", `USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 1`, baseOpts},
		{"OUTPUT", `USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Sex) = 0`, baseOpts},
		{"update attribute", `USE German WHEN Age >= 1 UPDATE(Savings) = 3 OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 0`, baseOpts},
		{"seed", base, Options{Seed: 8}},
		{"mode", base, Options{Seed: 7, Mode: ModeNB}},
		{"estimator", base, Options{Seed: 7, Estimator: EstimatorForest}},
		{"sample size", base, Options{Seed: 7, SampleSize: 500}},
		{"shard rows", base, Options{Seed: 7, ShardRows: 256}},
		{"no blocks", base, Options{Seed: 7, DisableBlocks: true}},
	}
	cache := NewCache()
	o := baseOpts
	o.Cache = cache
	if _, _, hit := partialTraced(t, ctx, db, model, mustWhatIf(t, base), o, []int{0}); hit {
		t.Fatal("the first call hit an empty cache")
	}
	for _, s := range siblings {
		q := mustWhatIf(t, s.src)
		o := s.opts
		o.Cache = cache
		got, _, hit := partialTraced(t, ctx, db, model, q, o, []int{0})
		if hit {
			t.Errorf("%s: served the Prepared of another shape", s.name)
		}
		o.Cache = NewCache()
		want, _, _ := partialTraced(t, ctx, db, model, q, o, []int{0})
		if err := diffPartials(got, want); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
	if n := len(preparedKeys(cache)); n != len(siblings)+1 {
		t.Errorf("%d Prepared entries for %d shapes", n, len(siblings)+1)
	}

	// Failures cache nothing: a query the engine refuses, and a preparation
	// whose context is already cancelled, which the next call prepares.
	cache = NewCache()
	o = Options{Seed: 7, Cache: cache}
	bad := mustWhatIf(t, `USE German UPDATE(Status) = 3 OUTPUT AVG(POST(Nope))`)
	if _, err := EvaluatePartialContext(ctx, db, model, bad, o, []int{0}); err == nil {
		t.Fatal("an unknown OUTPUT attribute evaluated")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	q := mustWhatIf(t, base)
	if _, err := EvaluatePartialContext(cancelled, db, model, q, o, []int{0}); err == nil {
		t.Fatal("a cancelled evaluation succeeded")
	}
	if keys := preparedKeys(cache); len(keys) != 0 {
		t.Fatalf("failed preparations were cached: %q", keys)
	}
	got, _, hit := partialTraced(t, ctx, db, model, q, o, []int{0})
	if hit {
		t.Error("the call after a cancelled preparation hit the cache")
	}
	o.Cache = NewCache()
	want, _, _ := partialTraced(t, ctx, db, model, q, o, []int{0})
	if err := diffPartials(got, want); err != nil {
		t.Errorf("after a cancelled preparation: %v", err)
	}
}

// TestPartialPreparedPerCall: the execution knobs are each call's. After a
// miss, two concurrent hits on the cached Prepared with different Shards and
// Progress each run on their own fan-out (the eval_shards workers) and
// report to their own callback, and no callback hears from a call that is
// not its own. Run under -race.
func TestPartialPreparedPerCall(t *testing.T) {
	ctx := context.Background()
	db, model := preparedData("german")
	q := mustWhatIf(t, `USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	cache := NewCache()
	plan, _, err := PlanContext(ctx, db, model, q, Options{ShardRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, plan)
	for i := range all {
		all[i] = i
	}
	var heard [3]atomic.Int64
	call := func(i, shards int) (*obs.SpanJSON, bool) {
		o := Options{Seed: 7, ShardRows: 64, Cache: cache, Shards: shards,
			Progress: func(string, int, int) { heard[i].Add(1) }}
		_, root, hit := partialTraced(t, ctx, db, model, q, o, all)
		return root, hit
	}
	if _, hit := call(0, 2); hit {
		t.Fatal("the first call hit an empty cache")
	}
	missHeard := heard[0].Load()
	if missHeard == 0 {
		t.Fatal("the miss's Progress heard nothing")
	}
	var wg sync.WaitGroup
	for i, shards := range []int{1, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root, hit := call(i+1, shards)
			if !hit {
				t.Errorf("call %d missed the cached Prepared", i+1)
			}
			es := spanNamed(root, "eval_shards")
			if w, _ := es.Attrs["workers"].(int64); int(w) != shards {
				t.Errorf("call %d with Shards=%d ran on %v workers", i+1, shards, es.Attrs["workers"])
			}
		}()
	}
	wg.Wait()
	if h1, h2 := heard[1].Load(), heard[2].Load(); h1 != missHeard || h2 != missHeard {
		t.Errorf("the hits' callbacks heard %d and %d updates, the miss's %d", h1, h2, missHeard)
	}
	if h := heard[0].Load(); h != missHeard {
		t.Errorf("the miss's callback heard %d updates after it returned", h-missHeard)
	}
}

// TestPartialPreparedEvictionFreesPartition is TestPartitionDoesNotOutliveRequest
// for the cached Prepared: the cache is what keeps its partition, so once
// the Prepared is evicted (here by the estimator set that takes the one
// slot of a NewCacheBounded(1)) nothing may hold the partition.
func TestPartialPreparedEvictionFreesPartition(t *testing.T) {
	ctx := context.Background()
	g := dataset.GermanSyn(500, 7)
	q := mustWhatIf(t, `USE German UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Age) = 0`)
	c := NewCacheBounded(1)
	o := Options{Seed: 7, Cache: c}
	key := preparedKey(g.DB, q, o.withDefaults())
	collected := make(chan struct{})
	func() {
		p, err := Prepare(ctx, g.DB, g.Model, q, o)
		if err != nil {
			t.Fatal(err)
		}
		if held, ok := c.Peek(key); !ok || held != p {
			t.Fatal("the cache does not hold the Prepared; the test proved nothing")
		}
		e, err := p.bind(ctx, q.Updates, time.Now(), o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.partials(ctx, []int{0}); err != nil {
			t.Fatal(err)
		}
		if p.part.classOf == nil || e.est.trainedModels() == 0 {
			t.Fatal("no partition or no lazy fit; the test proved nothing")
		}
		runtime.SetFinalizer(p.part.classOf, func(*relation.Codes) { close(collected) })
	}()
	if _, ok := c.Peek(key); ok || c.Stats().Evictions == 0 {
		t.Fatal("the Prepared was not evicted; the test proved nothing")
	}
	for range 20 {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the partition of an evicted Prepared is still reachable")
}

// TestPartialPreparedFootprint: what a cached Prepared adds to the cache
// over German-Syn 20,000 is its WHEN set and partition, at most 6 B a view
// row: the cache entry is the *Prepared itself, not a bound evaluation,
// evaluator or Result.
func TestPartialPreparedFootprint(t *testing.T) {
	ctx := context.Background()
	g := dataset.GermanSyn(20000, 7)
	q := mustWhatIf(t, `USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	o := Options{Seed: 7, Cache: NewCache()}
	plan, rows, err := PlanContext(ctx, g.DB, g.Model, q, o)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, plan)
	for i := range all {
		all[i] = i
	}
	if _, err := EvaluatePartialContext(ctx, g.DB, g.Model, q, o, all); err != nil {
		t.Fatal(err)
	}
	key := preparedKey(g.DB, q, o.withDefaults())
	func() {
		held, _ := o.Cache.Peek(key)
		p, ok := held.(*Prepared)
		if !ok {
			t.Fatalf("the cache holds a %T under the Prepared's key", held)
		}
		if p.part.classOf == nil {
			t.Fatal("no partition; the test proved nothing")
		}
	}()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a sync.Pool's victims go on the second
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	o.Cache.Forget(key)
	without := heap()
	runtime.KeepAlive(g) // the rest of the cache, and the data it is over, stay
	runtime.KeepAlive(o.Cache)
	perRow := float64(with-without) / float64(rows)
	t.Logf("a cached Prepared over %d rows holds %d B (%.2f B a row)", rows, with-without, perRow)
	if with < without || perRow > 6 {
		t.Errorf("a cached Prepared over %d rows holds %d B - %d B, want at most 6 B a row", rows, with, without)
	}
}
