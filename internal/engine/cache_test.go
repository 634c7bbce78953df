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

// TestCacheOneViewPerUse: the view and the block decomposition are functions
// of USE (and the snapshot), not of what a query updates. What-ifs over one
// USE that update different attributes — a how-to's candidates, a session's
// templates — add an estimator set each and nothing else: every view, bare
// table or sub-select, reads its rows' blocks off the database's
// decomposition through its base rows.
func TestCacheOneViewPerUse(t *testing.T) {
	g := dataset.GermanSyn(1000, 7)
	a := dataset.AmazonSyn(200, 4, 7)
	for _, tc := range []struct {
		name    string
		data    *dataset.Single
		queries []string
		first   int // artifacts the first query builds
	}{
		{"bare table", g, []string{
			`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Housing) = 1 AND UPDATE(Status) = 2 OUTPUT COUNT(Credit = 1)`,
		}, 3}, // view, database blocks, estimator set
		{"sub-select", &dataset.Single{DB: a.DB, Model: a.Model}, []string{
			amazonUse + ` UPDATE(Price) = 0.9 * PRE(Price) OUTPUT AVG(POST(Rtng))`,
			amazonUse + ` UPDATE(Color) = 'Red' OUTPUT AVG(POST(Rtng))`,
			amazonUse + ` UPDATE(Color) = 'Blue' AND UPDATE(Price) = 500 OUTPUT AVG(POST(Rtng))`,
		}, 3}, // view, database blocks, estimator set
	} {
		c := NewCache()
		for i, src := range tc.queries {
			q, err := hyperql.ParseWhatIf(src)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := Evaluate(tc.data.DB, tc.data.Model, q, Options{Seed: 7, Cache: c})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			alone, err := Evaluate(tc.data.DB, tc.data.Model, q, Options{Seed: 7})
			if err != nil || !bitsEqual(cached.Value, alone.Value) || cached.Blocks != alone.Blocks {
				t.Errorf("%s query %d: %v in %d blocks through the shared cache, %v in %d alone (%v)", tc.name, i, cached.Value, cached.Blocks, alone.Value, alone.Blocks, err)
			}
			if st := c.Stats(); st.Entries != tc.first+i || int(st.Misses) != tc.first+i {
				t.Errorf("%s: %d artifacts and %d misses after query %d, want %d: one estimator set per query on top of the first's", tc.name, st.Entries, st.Misses, i, tc.first+i)
			}
		}
	}
}

// TestCacheConcurrentEvaluate hammers one shared cache from many goroutines
// running a mix of what-if queries; run under -race this is the engine-level
// concurrency stress test. The sub-select input has concurrent queries read
// one cached view's base rows.
func TestCacheConcurrentEvaluate(t *testing.T) {
	g := dataset.GermanSyn(2000, 7)
	a := dataset.AmazonSyn(200, 4, 7)
	for _, in := range []struct {
		name string
		data *dataset.Single
		srcs []string
	}{
		{"bare table", g, []string{
			`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
			`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)`,
			`USE German UPDATE(Housing) = 1 OUTPUT COUNT(Credit = 1) FOR POST(Credit) = 1 OR PRE(Age) = 1`,
		}},
		{"sub-select", &dataset.Single{DB: a.DB, Model: a.Model}, []string{
			amazonUse + ` UPDATE(Price) = 0.9 * PRE(Price) OUTPUT AVG(POST(Rtng))`,
			amazonUse + ` UPDATE(Color) = 'Red' OUTPUT AVG(POST(Rtng))`,
			amazonUse + ` UPDATE(Color) = 'Blue' AND UPDATE(Price) = 500 OUTPUT AVG(POST(Rtng))`,
			amazonUse + ` WHEN Brand = 'Asus' UPDATE(Price) = 1.1 * PRE(Price) OUTPUT COUNT(POST(Rtng) >= 4)`,
		}},
	} {
		qs := make([]*hyperql.WhatIf, len(in.srcs))
		for i, s := range in.srcs {
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
			res, err := Evaluate(in.data.DB, in.data.Model, q, Options{Mode: ModeFull, Seed: 7})
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
					res, err := Evaluate(in.data.DB, in.data.Model, qs[k], Options{Mode: ModeFull, Seed: 7, Cache: c})
					if err != nil {
						errs <- err
						return
					}
					if math.Abs(res.Value-want[k]) > 1e-9 {
						errs <- fmt.Errorf("%s query %d: got %v want %v", in.name, k, res.Value, want[k])
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
			t.Errorf("%s: bound violated under concurrency: %d entries", in.name, st.Entries)
		}
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
