package hyper

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyper/internal/dataset"
)

// slowBrute is a brute-force how-to with ~8100 combination evaluations on
// german-cont: enough work that cancellation mid-solve is observable.
const slowBrute = `USE German HOWTOUPDATE Status, Savings, Housing, Duration, InstallmentRate TOMAXIMIZE COUNT(Credit = 1)`

func germanContSession(cache *Cache) *Session {
	b, err := dataset.Lookup("german-cont")
	if err != nil {
		panic(err)
	}
	db, model := b.Build(0.3, 7)
	s := NewSessionWithCache(db, model, cache)
	s.SetOptions(Options{Mode: ModeFull, Seed: 7})
	return s
}

// TestHowToCancelMidSolve pins the cancellation satellite: a how-to
// cancelled mid-solve returns promptly (well before its deadline), leaves
// no goroutines behind, and leaves the shared engine cache consistent (the
// same session later computes the exact result a fresh session computes).
func TestHowToCancelMidSolve(t *testing.T) {
	sess := germanContSession(NewCacheBounded(512))
	before := runtime.NumGoroutine()

	// Cancel as soon as the solver reports progress; a generous outer
	// deadline distinguishes "cancel was observed" from "ran to the end".
	const outerDeadline = 60 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), outerDeadline)
	defer cancel()
	var sawProgress atomic.Int64
	progress := func(stage string, done, total int) {
		if sawProgress.Add(1) == 3 { // a few combos in: demonstrably mid-solve
			cancel()
		}
	}
	start := time.Now()
	res, err := sess.HowToBruteForce(ctx, mustParse[*HowToQuery](t, slowBrute), progress)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res %v), want context.Canceled", err, res)
	}
	if sawProgress.Load() < 3 {
		t.Fatalf("cancelled before the solver made progress (%d reports)", sawProgress.Load())
	}
	// ~8100 combos at ~1ms each would run for seconds; the cancelled solve
	// must return long before the outer deadline.
	if elapsed > outerDeadline/4 {
		t.Errorf("cancelled how-to took %s", elapsed)
	}

	// No goroutine leaks: the engine workers and the scoring pool exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines: %d before, %d after cancelled how-to", before, after)
	}

	// Cache consistency: the cancelled query left no partial artifact that
	// changes results. The same session (same cache) and a fresh cache-less
	// evaluation must agree exactly.
	got, err := sess.HowTo(`USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := germanContSession(nil).HowTo(`USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective != want.Objective || got.Base != want.Base || got.String() != want.String() {
		t.Errorf("post-cancel result diverged:\n  got  %v\n  want %v", got, want)
	}
}

// TestWhatIfCancelShardedSolve pins cancellation through the sharded
// evaluation path: a 10000-row what-if runs a 3-shard plan under a worker
// fan-out of 3, cancellation from inside the progress hook stops the shard
// workers at their next stride check, no goroutines are left behind, and a
// subsequent evaluation on the same session reproduces the uncancelled
// result exactly (the per-worker scratch and per-shard partials of the
// cancelled run leaked nothing into the cache).
func TestWhatIfCancelShardedSolve(t *testing.T) {
	b, err := dataset.Lookup("german")
	if err != nil {
		t.Fatal(err)
	}
	db, model := b.Build(2.0, 7) // 10000 rows: a 3-shard plan at the default granularity
	sess := NewSessionWithCache(db, model, NewCacheBounded(512))
	sess.SetOptions(Options{Mode: ModeFull, Seed: 7, Shards: 3})
	const src = `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawShards, fired atomic.Bool
	progress := func(stage string, done, total int) {
		if stage == "shards" {
			sawShards.Store(true)
		}
		if stage == "tuples" && done > 0 && done < total {
			fired.Store(true)
			cancel()
		}
	}
	res, err := sess.WhatIfContext(ctx, src, progress)
	if fired.Load() {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v (res %v), want context.Canceled", err, res)
		}
	} else if err != nil {
		// The whole solve fit inside one stride; nothing was cancellable.
		t.Fatalf("uncancelled solve failed: %v", err)
	}

	// No goroutine leaks: the shard workers exit with the evaluation.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines: %d before, %d after cancelled sharded what-if", before, after)
	}

	// Post-cancel consistency across fan-outs: the same session (cache
	// warmed or partially warmed by the cancelled run) and a fresh serial
	// session must agree bit for bit. The full run must also report the
	// "shards" progress stage (the cancelled one usually dies mid-shard).
	var shardsTotal atomic.Int64
	got, err := sess.WhatIfContext(context.Background(), src, func(stage string, done, total int) {
		if stage == "shards" {
			sawShards.Store(true)
			shardsTotal.Store(int64(total))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawShards.Load() || shardsTotal.Load() != 3 {
		t.Errorf("sharded solve reported shards progress = %v (total %d), want 3 shards", sawShards.Load(), shardsTotal.Load())
	}
	if got.ShardPlan != 3 {
		t.Errorf("shard plan = %d, want 3 at 10000 rows", got.ShardPlan)
	}
	fresh := NewSession(db, model)
	fresh.SetOptions(Options{Mode: ModeFull, Seed: 7, Shards: 1})
	want, err := fresh.WhatIf(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Sum != want.Sum || got.Count != want.Count {
		t.Errorf("post-cancel sharded result diverged: got %v, want %v", got.Value, want.Value)
	}
}

// TestHowToCancelShardedPool pins cancellation of a how-to whose candidate
// pool runs at a sharded fan-out: the pool and its nested engine workers
// exit promptly and leak no goroutines.
func TestHowToCancelShardedPool(t *testing.T) {
	sess := germanContSession(NewCacheBounded(512))
	o := sess.Options()
	o.Shards = 3
	sess.SetOptions(o)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var sawProgress atomic.Int64
	progress := func(stage string, done, total int) {
		if sawProgress.Add(1) == 3 {
			cancel()
		}
	}
	if _, err := sess.HowToBruteForce(ctx, mustParse[*HowToQuery](t, slowBrute), progress); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines: %d before, %d after cancelled sharded how-to", before, after)
	}
}

// TestWhatIfCancelled pins that a what-if with an already-cancelled context
// does no work, and that the IP path observes cancellation too.
func TestWhatIfCancelled(t *testing.T) {
	sess := germanContSession(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.WhatIfContext(ctx, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("whatif err = %v, want context.Canceled", err)
	}
	if _, err := sess.HowToContext(ctx, `USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("howto err = %v, want context.Canceled", err)
	}
	howTo := mustParse[*HowToQuery](t, `USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`)
	if _, err := sess.HowToMinimizeCost(ctx, howTo, 0.9, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("mincost err = %v, want context.Canceled", err)
	}
	if _, err := sess.HowToLexicographic(ctx, nil, howTo); !errors.Is(err, context.Canceled) {
		t.Errorf("lexicographic err = %v, want context.Canceled", err)
	}
}

// TestWhatIfDeadline pins deadline expiry inside the engine's evaluation.
func TestWhatIfDeadline(t *testing.T) {
	sess := germanContSession(nil)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := sess.WhatIfContext(ctx, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestProgressReporting pins that both engine ("tuples") and how-to
// ("candidates") progress hooks fire with sane counters.
func TestProgressReporting(t *testing.T) {
	b, _ := dataset.Lookup("german")
	db, model := b.Build(1.0, 7) // 5000 rows: above the engine's parallel threshold
	sess := NewSessionWithCache(db, model, NewCacheBounded(512))
	sess.SetOptions(Options{Mode: ModeFull, Seed: 7})

	type report struct {
		stage       string
		done, total int
	}
	var mu sync.Mutex
	var reports []report
	progress := func(stage string, done, total int) {
		mu.Lock()
		reports = append(reports, report{stage, done, total})
		mu.Unlock()
	}
	if _, err := sess.WhatIfContext(context.Background(), `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, progress); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	tuples := len(reports)
	last := reports[len(reports)-1]
	mu.Unlock()
	if tuples == 0 {
		t.Fatal("what-if reported no progress")
	}
	if last.stage != "tuples" || last.done != last.total || last.total != 5000 {
		t.Errorf("final what-if report = %+v, want tuples 5000/5000", last)
	}

	mu.Lock()
	reports = nil
	mu.Unlock()
	if _, err := sess.HowToContext(context.Background(), `USE German HOWTOUPDATE Status, Savings TOMAXIMIZE COUNT(Credit = 1)`, progress); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Fatal("how-to reported no progress")
	}
	seen := map[int]bool{}
	for _, r := range reports {
		if r.stage != "candidates" {
			t.Fatalf("how-to stage = %q, want candidates", r.stage)
		}
		if r.done < 1 || r.done > r.total {
			t.Fatalf("inconsistent report %+v", r)
		}
		if seen[r.done] {
			t.Fatalf("duplicate done count %d", r.done)
		}
		seen[r.done] = true
	}
	if !seen[reports[0].total] {
		t.Errorf("how-to never reported full progress (%d candidates)", reports[0].total)
	}
}
