package howto

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
)

// TestHowToPreparesOncePerAttribute: a how-to's candidates of one attribute
// are updates of one prepared what-if. Over a attributes, k candidates and
// o objectives a traced how-to plans the WHEN set a·o times and partitions
// the view into tuple classes a·o times, while it still evaluates the
// o·(k+1) what-ifs (every candidate and the base) — not one plan and one
// partition per what-if.
func TestHowToPreparesOncePerAttribute(t *testing.T) {
	g := dataset.GermanSyn(2000, 7)
	const attrs = 3
	for _, tc := range []struct {
		name   string
		srcs   []string
		shards int
	}{
		{"one objective", []string{`USE German HOWTOUPDATE Status, Savings, Housing TOMAXIMIZE COUNT(Credit = 1)`}, 0},
		{"one objective, serial", []string{`USE German WHEN Age >= 1 HOWTOUPDATE Status, Savings, Housing LIMIT UPDATES <= 2 TOMAXIMIZE COUNT(Credit = 1) FOR PRE(Sex) = 1`}, 1},
		{"two objectives", []string{
			`USE German HOWTOUPDATE Status, Savings, Housing TOMAXIMIZE COUNT(Credit = 1)`,
			`USE German HOWTOUPDATE Status, Savings, Housing TOMINIMIZE COUNT(Credit = 0)`,
		}, 0},
	} {
		var qs []*hyperql.HowTo
		for _, src := range tc.srcs {
			qs = append(qs, parseHT(t, src))
		}
		tr := obs.NewTrace("howto")
		res, err := Lexicographic(tr.Context(context.Background()), g.DB, g.Model, qs,
			Options{Engine: engine.Options{Seed: 7, Shards: tc.shards}})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tr.Finish()
		var plans, evals, partitions int
		var walk func(*obs.SpanJSON)
		walk = func(sj *obs.SpanJSON) {
			switch sj.Name {
			case "plan":
				plans++
			case "eval_shards":
				evals++
				if sj.Attrs["partitioned"] == true {
					partitions++
				}
			}
			for _, c := range sj.Children {
				walk(c)
			}
		}
		walk(tr.Root().JSON())
		o := len(qs)
		if res.Candidates < attrs || evals != o*(res.Candidates+1) {
			t.Fatalf("%s: %d eval_shards spans for %d objectives × (%d candidates + base): the trace missed what-ifs", tc.name, evals, o, res.Candidates)
		}
		if plans != o*attrs || partitions != o*attrs {
			t.Errorf("%s: %d plan spans and %d partitions over %d attributes × %d objectives (%d candidates); want one each per attribute and objective",
				tc.name, plans, partitions, attrs, o, res.Candidates)
		}
	}
}

// TestHowToReusesPreparedAcrossRuns: a how-to run twice on one engine cache,
// as a hyperd session runs a repeated how-to, takes every Prepared of the
// second run from the cache: its trace has no plan or blocks stage, every
// prepare span reads cache_hit: true, and the answer is the first run's.
func TestHowToReusesPreparedAcrossRuns(t *testing.T) {
	g := dataset.GermanSyn(2000, 7)
	q := parseHT(t, `USE German WHEN Age >= 1 HOWTOUPDATE Status, Savings, Housing LIMIT UPDATES <= 2 TOMAXIMIZE COUNT(Credit = 1) FOR PRE(Sex) = 1`)
	o := Options{Engine: engine.Options{Seed: 7, Cache: engine.NewCache()}}
	var first *Result
	for run := range 2 {
		tr := obs.NewTrace("howto")
		res, err := Evaluate(tr.Context(context.Background()), g.DB, g.Model, q, o)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		var prepares, hits, plans, blocks int
		var walk func(*obs.SpanJSON)
		walk = func(sj *obs.SpanJSON) {
			switch sj.Name {
			case "prepare":
				prepares++
				if sj.Attrs["cache_hit"] == true {
					hits++
				}
			case "plan":
				plans++
			case "blocks":
				blocks++
			}
			for _, c := range sj.Children {
				walk(c)
			}
		}
		walk(tr.Root().JSON())
		if run == 0 {
			if plans == 0 || blocks == 0 || prepares <= hits {
				t.Fatalf("the first run prepared nothing (%d prepare spans, %d hits, %d plan, %d blocks); the test proved nothing",
					prepares, hits, plans, blocks)
			}
			first = res
			continue
		}
		if plans != 0 || blocks != 0 {
			t.Errorf("the second run opened %d plan and %d blocks stages, want none", plans, blocks)
		}
		if prepares == 0 || hits != prepares {
			t.Errorf("the second run's %d prepare spans read cache_hit: true %d times, want every one", prepares, hits)
		}
		if math.Float64bits(res.Objective) != math.Float64bits(first.Objective) || math.Float64bits(res.Base) != math.Float64bits(first.Base) || fmt.Sprint(res.Choices) != fmt.Sprint(first.Choices) {
			t.Errorf("the second run answered %v (objective %v, base %v), the first %v (objective %v, base %v)",
				res.Choices, res.Objective, res.Base, first.Choices, first.Objective, first.Base)
		}
	}
}
