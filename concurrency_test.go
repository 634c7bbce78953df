package hyper

import (
	"context"
	"math"
	"sync"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/obs"
)

// TestSessionConcurrentQueries hammers one cache-sharing Session from many
// goroutines running what-if, explain, and how-to queries interleaved with
// SetOptions and SetPlanCache calls; under -race this is the public-API
// concurrency stress test. Every goroutine must observe the same values as a
// serial run.
func TestSessionConcurrentQueries(t *testing.T) {
	g := dataset.GermanSyn(2000, 7)
	s := NewSessionWithCache(g.DB, g.Model, NewCacheBounded(128))
	opts := Options{Seed: 7}
	s.SetOptions(opts)

	whatifs := []string{
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
		`USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`,
	}
	want := make([]float64, len(whatifs))
	parsed := make([]*WhatIfQuery, len(whatifs))
	for i, src := range whatifs {
		res, err := s.WhatIf(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i], parsed[i] = res.Value, mustParse[*WhatIfQuery](t, src)
	}
	const howtoSrc = `USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	wantHowTo, err := s.HowTo(howtoSrc)
	if err != nil {
		t.Fatal(err)
	}

	plans := NewPlanCache(8)
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				switch w % 4 {
				case 0, 1:
					k := (w + it) % len(whatifs)
					res, err := s.WhatIf(whatifs[k])
					if err != nil {
						fail(err)
						return
					}
					if math.Abs(res.Value-want[k]) > 1e-9 {
						t.Errorf("whatif %d: got %v want %v", k, res.Value, want[k])
					}
				case 2:
					if _, err := s.Explain(context.Background(), parsed[it%len(parsed)]); err != nil {
						fail(err)
						return
					}
					// Snapshot semantics: writing the same options back must
					// not disturb queries in flight.
					s.SetOptions(opts)
					// Likewise the plan cache: attaching or detaching it only
					// decides whether compiled plans are kept.
					if it%2 == 0 {
						s.SetPlanCache(plans)
					} else {
						s.SetPlanCache(nil)
					}
				case 3:
					res, err := s.HowTo(howtoSrc)
					if err != nil {
						fail(err)
						return
					}
					if math.Abs(res.Objective-wantHowTo.Objective) > 1e-9 {
						t.Errorf("howto objective: got %v want %v", res.Objective, wantHowTo.Objective)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Cache().Stats()
	if st.Hits == 0 {
		t.Error("concurrent repeat queries recorded no cache hits")
	}
}

// TestSessionCacheSpeedsUpRepeatWhatIf checks the serving-path property the
// daemon relies on: a repeated what-if against a cache-sharing session skips
// view construction, block decomposition and estimator training. It reads
// that off the warm run's own telemetry — each of those stages' spans reports
// a cache hit, and its meter counts no trained model — rather than comparing
// two wall-clock readings of one run each.
func TestSessionCacheSpeedsUpRepeatWhatIf(t *testing.T) {
	g := dataset.GermanSyn(8000, 7)
	s := NewSessionWithCache(g.DB, g.Model, nil)
	s.SetOptions(Options{Seed: 7})
	const src = `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`

	run := func() (*WhatIfResult, *obs.MeterJSON, *obs.SpanJSON) {
		t.Helper()
		meter, tr := obs.NewMeter(), obs.NewTrace("whatif")
		res, err := s.WhatIfContext(obs.ContextWithMeter(tr.Context(context.Background()), meter), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		return res, meter.JSON(), tr.Root().JSON()
	}
	cold, coldMeter, _ := run()
	warm, warmMeter, warmSpans := run()
	if warm.Value != cold.Value {
		t.Fatalf("warm value %v != cold value %v", warm.Value, cold.Value)
	}
	if coldMeter.FitsTrained == 0 {
		t.Fatal("the cold run trained no model")
	}
	if warmMeter.FitsTrained != 0 {
		t.Errorf("warm run trained %d models, want 0 (estimator not reused?)", warmMeter.FitsTrained)
	}
	for _, stage := range []string{"view", "blocks", "train"} {
		sp := spanNamed(warmSpans, stage)
		if sp == nil {
			t.Fatalf("warm run has no %q span", stage)
		}
		if sp.Attrs["cache_hit"] != true {
			t.Errorf("warm run's %q stage: cache_hit = %v, want true", stage, sp.Attrs["cache_hit"])
		}
	}
	st := s.Cache().Stats()
	if st.Hits < 3 {
		t.Errorf("warm run hit the cache %d times, want >= 3 (view, blocks, estimator)", st.Hits)
	}

	// A cache-less session must not share artifacts across queries.
	plain := NewSession(g.DB, g.Model)
	if plain.Cache() != nil {
		t.Error("NewSession should not attach a cache")
	}
}

// spanNamed returns the first span of the given name in a depth-first walk.
func spanNamed(sj *obs.SpanJSON, name string) *obs.SpanJSON {
	if sj == nil || sj.Name == name {
		return sj
	}
	for _, c := range sj.Children {
		if found := spanNamed(c, name); found != nil {
			return found
		}
	}
	return nil
}
