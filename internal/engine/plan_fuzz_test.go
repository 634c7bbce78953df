package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/plan"
	"hyper/internal/relation"
	"hyper/internal/sqlmini"
	"hyper/internal/stats"
)

// fuzzData lazily builds one small German-Syn world shared by every fuzz
// iteration (building it per-input would drown the fuzzer in setup time).
var fuzzData = sync.OnceValue(func() *dataset.Single {
	return dataset.GermanSyn(800, 97)
})

// randomPlannedQuery generates a well-formed what-if whose WHEN clause
// deliberately walks the planner's classification space: pushable equality,
// inequality, ranges, IN/NOT IN, AND chains, residual shapes (NOT,
// arithmetic), an unknown column (the plan falls back; the query always
// fails to resolve, planned or not) and no WHEN at all.
func randomPlannedQuery(rng *stats.RNG) string {
	conj := func() string {
		switch rng.Intn(9) {
		case 0:
			return fmt.Sprintf("Age = %d", rng.Intn(5)) // incl. never-true code 4
		case 1:
			return fmt.Sprintf("Savings != %d", rng.Intn(4))
		case 2:
			return fmt.Sprintf("CreditAmount > %d", rng.Intn(3))
		case 3:
			return fmt.Sprintf("Housing <= %d", rng.Intn(3))
		case 4:
			return fmt.Sprintf("Age IN (0, %d)", 1+rng.Intn(3))
		case 5:
			return fmt.Sprintf("Age NOT IN (%d)", rng.Intn(4))
		case 6:
			return fmt.Sprintf("NOT (Sex = %d)", rng.Intn(2)) // residual (unary NOT)
		case 7:
			return fmt.Sprintf("Nope = %d", rng.Intn(2)) // unknown column: fallback, and a resolve error
		default:
			return fmt.Sprintf("Age + Sex = %d", rng.Intn(4)) // residual (arithmetic)
		}
	}
	src := "USE German "
	switch rng.Intn(4) {
	case 0: // no WHEN
	case 1:
		src += "WHEN " + conj() + " "
	case 2:
		src += "WHEN " + conj() + " AND " + conj() + " "
	default:
		src += "WHEN " + conj() + " AND " + conj() + " AND " + conj() + " "
	}
	updAttrs := []string{"Status", "Savings", "Housing", "CreditAmount"}
	attr := updAttrs[rng.Intn(len(updAttrs))]
	maxCode := map[string]int{"Status": 3, "Savings": 3, "Housing": 2, "CreditAmount": 3}[attr]
	switch rng.Intn(3) {
	case 0:
		src += fmt.Sprintf("UPDATE(%s) = %d ", attr, rng.Intn(maxCode+1))
	case 1:
		src += fmt.Sprintf("UPDATE(%s) = 1 + PRE(%s) ", attr, attr)
	default:
		src += fmt.Sprintf("UPDATE(%s) = 2 * PRE(%s) ", attr, attr)
	}
	switch rng.Intn(3) {
	case 0:
		src += "OUTPUT COUNT(Credit = 1)"
	case 1:
		src += "OUTPUT AVG(POST(Credit))"
	default:
		src += "OUTPUT SUM(POST(Credit))"
	}
	switch rng.Intn(4) {
	case 0:
		src += fmt.Sprintf(" FOR PRE(Sex) = %d", rng.Intn(2))
	case 1:
		src += " FOR POST(Credit) = 1 OR PRE(Age) = 0"
	case 2:
		src += fmt.Sprintf(" FOR PRE(Age) IN (0, %d)", 1+rng.Intn(3))
	}
	return src
}

// bitsEqual compares floats bit-for-bit — the planner's contract is
// bit-identity, not approximate equality.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// oracleMask is the independent reference for the update set: the whole WHEN
// tree through sqlmini.EvalBool, row by row in row order, stopping at the
// first failing row. No production code evaluates a WHEN tree this way; the
// planner's program must agree with it on every mask and every error.
func oracleMask(when hyperql.Expr, rel *relation.Relation) ([]bool, error) {
	mask := make([]bool, rel.Len())
	for i := range mask {
		if when == nil {
			mask[i] = true
			continue
		}
		ok, err := sqlmini.EvalBool(when, sqlmini.RowEnv{Rel: rel, Row: i})
		if err != nil {
			return nil, err
		}
		mask[i] = ok
	}
	return mask, nil
}

// FuzzPlanParity is the planner's bit-identity fuzzer. For a random
// well-formed what-if it holds the planner's update-set mask and error to
// oracleMask over the relevant view, then evaluates the query three ways —
// without a plan cache, through a cold one, and cache-warm — at a serial and
// a parallel fan-out: all three must fail with the resolve error of a query
// naming Nope, or agree bit-for-bit on Value, Sum and Count, select the
// oracle's number of rows and push the same conjuncts. CI runs this as a 30s
// smoke; locally:
//
//	go test -fuzz=FuzzPlanParity -fuzztime=30s ./internal/engine
func FuzzPlanParity(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42, 97, 211, 1234567, -5, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := fuzzData()
		rng := stats.NewRNG(seed)
		src := randomPlannedQuery(rng)
		q, err := hyperql.ParseWhatIf(src)
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", src, err)
		}
		v, _, _, err := cachedView(g.DB, q.Use, nil)
		if err != nil {
			t.Fatalf("%q: view: %v", src, err)
		}
		resolveErr := (&bound{v: v}).resolveWhatIf(q)
		want, wantErr := oracleMask(q.When, v.Rel)
		var noCache *plan.Cache
		qp, _ := noCache.WhatIf(g.DB, "", q, v.Rel)
		inS := make([]bool, v.Rel.Len())
		if _, err := qp.Apply(q.When, v.Rel, inS); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: planner err=%v, oracle err=%v; plan:\n%s", src, err, wantErr, qp.Explain())
		}
		wantRows := 0
		for i := range want {
			if inS[i] != want[i] {
				t.Fatalf("%q: row %d planner=%v oracle=%v; plan:\n%s", src, i, inS[i], want[i], qp.Explain())
			}
			if want[i] {
				wantRows++
			}
		}
		for _, shards := range []int{1, 4} {
			cached := Options{Seed: 1, Shards: shards, Cache: NewCache(), Plans: plan.NewCache(0)}
			var first *Result
			for _, run := range []struct {
				label string
				opts  Options
			}{
				{"no-cache", Options{Seed: 1, Shards: shards}},
				{"cold", cached},
				{"warm", cached},
			} {
				got, err := Evaluate(g.DB, g.Model, q, run.opts)
				if resolveErr != nil {
					if err == nil || err.Error() != resolveErr.Error() || !strings.Contains(err.Error(), `unknown column "Nope"`) {
						t.Fatalf("%q shards=%d %s: err=%v, resolve err=%v", src, shards, run.label, err, resolveErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%q shards=%d %s: %v", src, shards, run.label, err)
				}
				if got.UpdatedRows != wantRows {
					t.Fatalf("%q shards=%d %s: UpdatedRows=%d, oracle selects %d", src, shards, run.label, got.UpdatedRows, wantRows)
				}
				if got.PlanCacheHit != (run.label == "warm") {
					t.Fatalf("%q shards=%d %s: PlanCacheHit=%v", src, shards, run.label, got.PlanCacheHit)
				}
				if first == nil {
					first = got
					continue
				}
				if !bitsEqual(got.Value, first.Value) || !bitsEqual(got.Sum, first.Sum) || !bitsEqual(got.Count, first.Count) ||
					got.PlanPushed != first.PlanPushed {
					t.Fatalf("%q shards=%d %s: (%v,%v,%v) pushed=%d != no-cache (%v,%v,%v) pushed=%d; plan:\n%s",
						src, shards, run.label, got.Value, got.Sum, got.Count, got.PlanPushed,
						first.Value, first.Sum, first.Count, first.PlanPushed, got.PlanText)
				}
			}
		}
	})
}
