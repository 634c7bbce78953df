package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyper/internal/plan"
)

// updatePlans regenerates testdata/plans.golden from the current planner:
//
//	go test -run TestPlanGolden ./internal/engine -update
var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner output")

const plansGoldenPath = "testdata/plans.golden"

// planOnlyCases extends the golden corpus past the parity queries with WHEN
// shapes that exercise every planner classification: equality and range
// pushdown with cost-based reordering, IN/NOT IN over interned codes and
// residual conjuncts (arithmetic, NOT) that must stay row-evaluated. A tree
// the planner cannot validate names a column the view lacks, so its query
// fails to resolve before it plans (TestNameErrorsEveryWayIn); internal/plan
// covers the whole-tree fallback itself.
var planOnlyCases = []parityCase{
	{
		name:    "german-when-reordered",
		dataset: "german",
		// Sex (card 2) is less selective than Age (card 4): cost order must
		// put the Age equality first regardless of query order.
		query: `USE German WHEN Sex = 1 AND Age = 2 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		opts:  Options{Seed: 7},
	},
	{
		name:    "german-when-range-in",
		dataset: "german",
		query:   `USE German WHEN CreditAmount > 1 AND Age IN (0, 2) UPDATE(Savings) = 2 OUTPUT AVG(POST(Credit))`,
		opts:    Options{Seed: 7},
	},
	{
		name:    "german-when-residual",
		dataset: "german",
		// Arithmetic on the left side is not a column-literal comparison: the
		// conjunct stays residual while its AND-siblings still push down.
		query: `USE German WHEN Age + Sex = 2 AND Housing <= 1 AND Savings NOT IN (0) UPDATE(Housing) = 0 OUTPUT COUNT(Credit = 1)`,
		opts:  Options{Seed: 7},
	},
	{
		name:    "toy-when-string-range",
		dataset: "toy",
		query: toyUse + `
			WHEN Price < 600 AND Brand != 'HP'
			UPDATE(Price) = 0.9 * PRE(Price)
			OUTPUT AVG(POST(Rtng))`,
		opts: Options{Seed: 7},
	},
}

// renderPlans dumps the EXPLAIN rendering of every pinned parity query
// through a fresh plan cache. The output is fully deterministic (fingerprints
// are FNV over canonical query text + schema signature; the explain text is
// literal-free), so the golden is compared byte-exact.
func renderPlans(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	cases := append(append([]parityCase{}, parityCases...), planOnlyCases...)
	for _, c := range cases {
		if c.dataset == "amazon" {
			continue // answer-only rows: plans.golden pins the toy/German plans
		}
		opts := c.opts
		opts.Plans = plan.NewCache(0)
		opts.Cache = NewCache()
		opts.DryRun = true
		cc := c
		cc.opts = opts
		res := parityEval(t, cc)
		if res.PlanText == "" {
			t.Fatalf("%s: dry run produced no plan text", c.name)
		}
		fmt.Fprintf(&b, "=== %s\n%s\n", c.name, strings.TrimRight(res.PlanText, "\n"))
	}
	return b.String()
}

// TestPlanGolden is the plan-stability gate: the EXPLAIN output of every
// pinned toy/German query must match testdata/plans.golden byte for byte.
// Intentional planner changes regenerate it with -update; unintentional
// drift (a conjunct reordered, a pushdown lost to a classification change)
// fails CI's plan-golden step.
func TestPlanGolden(t *testing.T) {
	got := renderPlans(t)
	if *updatePlans {
		if err := os.MkdirAll(filepath.Dir(plansGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(plansGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", plansGoldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(plansGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if want := string(raw); got != want {
		t.Errorf("plans drifted from %s (approve with -update):\n--- golden\n%s\n--- current\n%s", plansGoldenPath, want, got)
	}
}

// TestPlannedParityGoldens re-runs every pinned parity case through a plan
// cache and holds it to the same 17-digit goldens TestWhatIfParityGoldens
// checks without one — cache-cold, then cache-warm (the repeat must be served
// from the plan cache), at a serial and a parallel fan-out — and to the
// no-cache run's update-set size and pushed-conjunct count: the cache decides
// only whether the plan is kept, on real pinned numbers rather than
// fuzzer-generated ones.
func TestPlannedParityGoldens(t *testing.T) {
	for _, c := range parityCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			noCache := parityEval(t, c)
			for _, shards := range []int{1, 4} {
				opts := c.opts
				opts.Shards = shards
				opts.Plans = plan.NewCache(0)
				opts.Cache = NewCache()
				for rep, label := range []string{"cold", "warm"} {
					cc := c
					cc.opts = opts
					res := parityEval(t, cc)
					if res.EstimatorUsed != c.estimator {
						t.Errorf("shards=%d %s: estimator = %q, golden %q", shards, label, res.EstimatorUsed, c.estimator)
					}
					if got := f17(res.Value); got != c.value {
						t.Errorf("shards=%d %s: value = %s, golden %s", shards, label, got, c.value)
					}
					if got := f17(res.Sum); got != c.sum {
						t.Errorf("shards=%d %s: sum = %s, golden %s", shards, label, got, c.sum)
					}
					if got := f17(res.Count); got != c.count {
						t.Errorf("shards=%d %s: count = %s, golden %s", shards, label, got, c.count)
					}
					if res.UpdatedRows != noCache.UpdatedRows || res.PlanPushed != noCache.PlanPushed {
						t.Errorf("shards=%d %s: updated=%d pushed=%d, without a plan cache updated=%d pushed=%d",
							shards, label, res.UpdatedRows, res.PlanPushed, noCache.UpdatedRows, noCache.PlanPushed)
					}
					if rep == 1 && !res.PlanCacheHit {
						t.Errorf("shards=%d: warm repeat missed the plan cache", shards)
					}
				}
			}
		})
	}
}
