package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
)

// TestEstKeyDistinguishesSeeds guards the serving-path invariant that a
// shared session cache never serves an estimator trained under a different
// seed: the seed drives sampling and forest randomness, so it is part of
// the estimator identity.
func TestEstKeyDistinguishesSeeds(t *testing.T) {
	feats := []string{"A", "B"}
	a := estKey("u", "w", "f", feats, Options{Seed: 1, SampleSize: 500})
	b := estKey("u", "w", "f", feats, Options{Seed: 2, SampleSize: 500})
	if a == b {
		t.Error("estKey ignores the seed; cached estimators would leak across seeds")
	}
	if a != estKey("u", "w", "f", feats, Options{Seed: 1, SampleSize: 500}) {
		t.Error("estKey is not deterministic")
	}
}

// TestCacheSharedEvaluate verifies that repeat evaluation through one cache
// reuses the view, blocks and estimator (hits recorded, identical results).
func TestCacheSharedEvaluate(t *testing.T) {
	g := dataset.GermanSyn(3000, 7)
	q, err := hyperql.ParseWhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheBounded(64)
	opts := Options{Mode: ModeFull, Seed: 7, Cache: c}
	cold, err := Evaluate(g.DB, g.Model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Entries == 0 {
		t.Fatal("cold run populated no cache entries")
	}
	warm, err := Evaluate(g.DB, g.Model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Value != cold.Value {
		t.Errorf("cached result %v != cold result %v", warm.Value, cold.Value)
	}
	st := c.Stats()
	if st.Hits < after.Hits+3 { // view + blocks + estimator
		t.Errorf("warm run recorded %d hits, want >= %d", st.Hits-after.Hits, 3)
	}
}

// TestCacheConcurrentEvaluate hammers one shared cache from many goroutines
// running a mix of what-if queries; run under -race this is the engine-level
// concurrency stress test.
func TestCacheConcurrentEvaluate(t *testing.T) {
	g := dataset.GermanSyn(2000, 7)
	srcs := []string{
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
		`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Housing) = 1 OUTPUT COUNT(Credit = 1) FOR POST(Credit) = 1 OR PRE(Age) = 1`,
	}
	qs := make([]*hyperql.WhatIf, len(srcs))
	for i, s := range srcs {
		q, err := hyperql.ParseWhatIf(s)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	// A small bound forces concurrent eviction alongside concurrent reuse.
	c := NewCacheBounded(4)
	want := make([]float64, len(qs))
	for i, q := range qs {
		res, err := Evaluate(g.DB, g.Model, q, Options{Mode: ModeFull, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Value
	}
	const goroutines = 8
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				k := (w + it) % len(qs)
				res, err := Evaluate(g.DB, g.Model, qs[k], Options{Mode: ModeFull, Seed: 7, Cache: c})
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(res.Value-want[k]) > 1e-9 {
					errs <- fmt.Errorf("query %d: got %v want %v", k, res.Value, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries > 4 {
		t.Errorf("bound violated under concurrency: %d entries", st.Entries)
	}
}

// TestCacheColdHerd: concurrent cold queries sharing one cache build each
// artifact and train each model once — the misses and trainings of a serial
// cold run, not eight times them — and agree with it to the bit.
func TestCacheColdHerd(t *testing.T) {
	g := dataset.GermanSyn(3000, 7)
	q, err := hyperql.ParseWhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewCacheBounded(64)
	want, err := Evaluate(g.DB, g.Model, q, Options{Mode: ModeFull, Seed: 7, Cache: serial})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	c := NewCacheBounded(64)
	got := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[w], errs[w] = Evaluate(g.DB, g.Model, q, Options{Mode: ModeFull, Seed: 7, Cache: c})
		}()
	}
	close(start)
	wg.Wait()
	for w, res := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if res.Value != want.Value || res.Sum != want.Sum || res.Count != want.Count {
			t.Errorf("goroutine %d: value/sum/count = %v/%v/%v, serial %v/%v/%v",
				w, res.Value, res.Sum, res.Count, want.Value, want.Sum, want.Count)
		}
		if res.TrainedModels != want.TrainedModels {
			t.Errorf("goroutine %d: TrainedModels = %d, serial %d", w, res.TrainedModels, want.TrainedModels)
		}
	}
	if st, ser := c.Stats(), serial.Stats(); st.Misses != ser.Misses || st.Entries != ser.Entries {
		t.Errorf("herd stats %+v, serial %+v: every artifact should be built once", st, ser)
	}
}

// TestCachedEstimatorSetDoesNotPinRequest: an estimator set lives in the
// cache long after the request that built it, so it must not keep that
// request's Progress (a job's bound Report method) reachable.
func TestCachedEstimatorSetDoesNotPinRequest(t *testing.T) {
	g := dataset.GermanSyn(500, 7)
	q, err := hyperql.ParseWhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheBounded(64)
	collected := make(chan struct{})
	func() {
		job := new([64]byte) // stands in for the job behind a progress callback
		runtime.SetFinalizer(job, func(*[64]byte) { close(collected) })
		opts := Options{Seed: 7, Cache: c, Progress: func(string, int, int) { _ = job[0] }}
		if _, err := Evaluate(g.DB, g.Model, q, opts); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if c.Stats().Entries == 0 {
				t.Fatal("the cache is empty; the test proved nothing")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the request's Progress is still reachable from the cache after the request returned")
}
