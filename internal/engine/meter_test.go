package engine

import (
	"context"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
)

// evalMetered evaluates query with a fresh trace and meter riding the context
// and returns the result, the meter snapshot and the rendered span tree.
func evalMetered(t *testing.T, ds string, size int, query string, opts Options) (*Result, *obs.MeterJSON, *obs.SpanJSON) {
	t.Helper()
	q, err := hyperql.ParseWhatIf(query)
	if err != nil {
		t.Fatal(err)
	}
	meter := obs.NewMeter()
	tr := obs.NewTrace("whatif")
	ctx := obs.ContextWithMeter(tr.Context(context.Background()), meter)
	var res *Result
	switch ds {
	case "toy":
		db, model := dataset.Toy()
		res, err = EvaluateContext(ctx, db, model, q, opts)
	case "german":
		g := dataset.GermanSyn(size, 7)
		res, err = EvaluateContext(ctx, g.DB, g.Model, q, opts)
	case "german-cont":
		g := dataset.GermanSynContinuous(size, 7)
		res, err = EvaluateContext(ctx, g.DB, g.Model, q, opts)
	default:
		t.Fatalf("unknown dataset %q", ds)
	}
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	return res, meter.JSON(), tr.Root().JSON()
}

// checkMeterGolden asserts the meter's fan-out-independent counters against
// the authoritative result fields.
func checkMeterGolden(t *testing.T, res *Result, mj *obs.MeterJSON) {
	t.Helper()
	if mj.TuplesEvaluated != uint64(res.ViewRows) {
		t.Errorf("meter tuples = %d, result view rows = %d", mj.TuplesEvaluated, res.ViewRows)
	}
	if mj.PlanShards != uint64(res.ShardPlan) {
		t.Errorf("meter plan = %d, result plan = %d", mj.PlanShards, res.ShardPlan)
	}
	if mj.ShardsRun != uint64(res.ShardPlan) {
		t.Errorf("meter shards run = %d, want the full plan %d (local evaluation)", mj.ShardsRun, res.ShardPlan)
	}
	if mj.FitsTrained != uint64(res.TrainedModels) {
		t.Errorf("meter fits trained = %d, result trained models = %d", mj.FitsTrained, res.TrainedModels)
	}
	if mj.FitsCached != 0 {
		t.Errorf("meter fits cached = %d on a cache-less evaluation", mj.FitsCached)
	}
	for _, stage := range stageNames {
		if _, ok := mj.StagesMs[stage]; !ok {
			t.Errorf("meter missing %q stage (stages: %v)", stage, mj.StagesMs)
		}
	}
}

// stageNames are the engine's timed stages: the meter charges each under its
// span's name.
var stageNames = []string{"view", "blocks", "plan", "train", "eval_shards", "fold"}

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

// TestStageTimesAgree pins that each stage is timed once: for view, blocks,
// plan and train the Result field, the span and the meter entry are the same
// duration to the nanosecond; for the tuple loop the eval_shards and fold
// spans equal their meter entries and Result.EvalTime is their sum.
func TestStageTimesAgree(t *testing.T) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	ns := func(ms float64) time.Duration { return time.Duration(math.Round(ms * float64(time.Millisecond))) }
	cases := []struct {
		name, dataset string
		size          int
		query         string
	}{
		{"toy", "toy", 0, parityCases[0].query},
		{"german-5000", "german", 5000, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 4} {
			t.Run(c.name+"/shards="+strconv.Itoa(shards), func(t *testing.T) {
				res, mj, root := evalMetered(t, c.dataset, c.size, c.query, Options{Seed: 7, Shards: shards})
				fields := []time.Duration{res.ViewTime, res.BlockTime, res.PlanTime, res.TrainTime}
				var loop time.Duration
				for i, name := range stageNames {
					sp := spanNamed(root, name)
					if sp == nil {
						t.Fatalf("no %s span in %s", name, obs.Skeleton(root))
					}
					if sp.DurMs != mj.StagesMs[name] {
						t.Errorf("%s: span %v ms, meter %v ms", name, sp.DurMs, mj.StagesMs[name])
					}
					if i < len(fields) {
						if ms(fields[i]) != sp.DurMs {
							t.Errorf("%s: Result %v ms, span %v ms", name, ms(fields[i]), sp.DurMs)
						}
						continue
					}
					loop += ns(sp.DurMs)
				}
				if res.EvalTime != loop {
					t.Errorf("Result.EvalTime %v, eval_shards + fold spans %v", res.EvalTime, loop)
				}
			})
		}
	}
}

// meterCounters projects the fan-out-independent part of a cost vector for
// cross-fan-out comparison (stage wall times legitimately vary).
func meterCounters(mj *obs.MeterJSON) [6]uint64 {
	return [6]uint64{mj.TuplesEvaluated, mj.ShardsRun, mj.PlanShards,
		mj.FitsTrained, mj.FitsCached, mj.WhatIfEvals}
}

// TestMeterGoldenAcrossFanOuts pins the meter-accuracy contract: the cost
// vector's counters equal the authoritative Result/ShardPlan figures, and —
// like the results themselves — are identical at every worker fan-out. The
// cases cover the single-shard regime, the multi-shard freq regime, and the
// multi-shard regression regime (where models actually train).
func TestMeterGoldenAcrossFanOuts(t *testing.T) {
	cases := []struct {
		name    string
		dataset string
		size    int
		query   string
	}{
		{name: "german-1000-plan1", dataset: "german", size: 1000,
			query: `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`},
		{name: "german-5000-plan2", dataset: "german", size: 5000,
			query: `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`},
		{name: "german-cont-5000-trained", dataset: "german-cont", size: 5000,
			query: `USE German UPDATE(CreditAmount) = 1.2 * PRE(CreditAmount) OUTPUT COUNT(Credit = 1)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var base *obs.MeterJSON
			for _, shards := range []int{1, 4} {
				t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
					res, mj, _ := evalMetered(t, c.dataset, c.size, c.query, Options{Seed: 7, Shards: shards})
					checkMeterGolden(t, res, mj)
					if base == nil {
						base = mj
						return
					}
					if meterCounters(mj) != meterCounters(base) {
						t.Errorf("counters vary with fan-out: %v vs %v",
							meterCounters(mj), meterCounters(base))
					}
				})
			}
		})
	}
}

// TestMeterConcurrentQueriesNoBleed runs interleaved metered queries (plus
// an unmetered one exercising the nil path) concurrently and asserts every
// meter matches its own query's sequential reference — charges can never
// bleed across contexts. Run under -race this also proves the charging
// paths are data-race-free.
func TestMeterConcurrentQueriesNoBleed(t *testing.T) {
	queries := []string{
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
	}
	// Sequential references.
	refs := make([][6]uint64, len(queries))
	for i, q := range queries {
		_, mj, _ := evalMetered(t, "german", 2000, q, Options{Seed: 7, Shards: 2})
		refs[i] = meterCounters(mj)
	}

	g := dataset.GermanSyn(2000, 7)
	const goroutines, iters = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (w + it) % len(queries)
				q, err := hyperql.ParseWhatIf(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				meter := obs.NewMeter()
				ctx := obs.ContextWithMeter(context.Background(), meter)
				if _, err := EvaluateContext(ctx, g.DB, g.Model, q, Options{Seed: 7, Shards: 2}); err != nil {
					errs <- err
					return
				}
				if got := meterCounters(meter.JSON()); got != refs[qi] {
					t.Errorf("goroutine %d iter %d: meter %v, want %v (query %d)", w, it, got, refs[qi], qi)
				}
			}
		}()
	}
	// One unmetered evaluation racing the metered ones: the nil-meter path
	// must stay silent and safe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		q, err := hyperql.ParseWhatIf(queries[0])
		if err != nil {
			errs <- err
			return
		}
		if _, err := EvaluateContext(context.Background(), g.DB, g.Model, q, Options{Seed: 7, Shards: 2}); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
