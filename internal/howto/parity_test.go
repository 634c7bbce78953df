package howto

// Parity goldens for how-to evaluation: the candidate-scoring pool and the
// columnar estimator substrate must not change which updates are chosen,
// the estimated objective, or the rendered choice ordering. Result.String()
// includes every choice in attribute order plus objective and base, so one
// string pins the full outcome.

import (
	"context"
	"os"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

type howtoParityCase struct {
	name   string
	cont   bool // german-cont instead of german
	toy    bool // the paper's toy Product/Review database
	amazon bool // dataset.AmazonSyn(300, 6, 7)
	method string
	srcs   []string
	target float64 // mincost only
	golden string
	// Solver-side counters and the full-precision objective, recorded at the
	// commit before the shared table/model builder replaced the three
	// hand-written formulations: a reordered constraint row or a dropped
	// candidate moves these even when the rendered golden does not.
	cands, evals, nodes int
	objective           string // 17 significant digits
}

var howtoParityCases = []howtoParityCase{
	{
		name:   "ip-four-attrs",
		method: "ip",
		srcs: []string{`
			USE German
			HOWTOUPDATE Status, Savings, Housing, CreditAmount
			TOMAXIMIZE COUNT(Credit = 1)`},
		golden: "{Status: = 3, Savings: = 3, Housing: = 2, CreditAmount: = 3} objective=1370.7 (base=528)",
		cands:  15, evals: 15, nodes: 1, objective: "1370.6955527052924",
	},
	{
		name:   "ip-budget-one",
		method: "ip",
		srcs: []string{`
			USE German
			HOWTOUPDATE Status, Savings, Housing, CreditAmount
			LIMIT UPDATES <= 1
			TOMAXIMIZE COUNT(Credit = 1)`},
		golden: "{Status: = 3, Savings: no change, Housing: no change, CreditAmount: no change} objective=875.686 (base=528)",
		cands:  15, evals: 15, nodes: 1, objective: "875.68587543540139",
	},
	{
		name:   "brute-two-attrs",
		method: "brute",
		srcs: []string{`
			USE German
			HOWTOUPDATE Status, Housing
			LIMIT UPDATES <= 2
			TOMAXIMIZE COUNT(Credit = 1)`},
		golden: "{Status: = 3, Housing: = 2} objective=891.438 (base=528)",
		cands:  7, evals: 20, nodes: 0, objective: "891.43766917555399",
	},
	{
		name:   "mincost-target",
		method: "mincost",
		target: 600,
		srcs: []string{`
			USE German
			HOWTOUPDATE Status, Housing
			TOMAXIMIZE COUNT(Credit = 1)`},
		golden: "{Status: = 2, Housing: no change} objective=641.296 (base=528)",
		cands:  7, evals: 7, nodes: 7, objective: "641.2956537422923",
	},
	{
		name:   "lexicographic",
		method: "lex",
		srcs: []string{
			`USE German HOWTOUPDATE Status, Savings TOMAXIMIZE COUNT(Credit = 1)`,
			`USE German HOWTOUPDATE Status, Savings TOMAXIMIZE AVG(POST(Savings))`,
		},
		golden: "{Status: = 3, Savings: = 3} objective=1144.25 (base=528)",
		cands:  8, evals: 16, nodes: 2, objective: "1144.2469461214682",
	},
	{
		name:   "ip-continuous-linear",
		method: "ip",
		cont:   true,
		srcs: []string{`
			USE German
			HOWTOUPDATE CreditAmount
			LIMIT 1000 <= POST(CreditAmount) <= 3000
			TOMAXIMIZE COUNT(Credit = 1)`},
		golden: "{CreditAmount: = 2875} objective=369.179 (base=366)",
		cands:  8, evals: 8, nodes: 1, objective: "369.17882405298974",
	},
	{
		name:   "mincost-budget-one",
		method: "mincost",
		target: 700,
		srcs: []string{`
			USE German
			HOWTOUPDATE Status, Housing
			LIMIT UPDATES <= 1
			TOMAXIMIZE COUNT(Credit = 1)`},
		golden: "{Status: = 3, Housing: no change} objective=875.686 (base=528)",
		cands:  7, evals: 7, nodes: 3, objective: "875.68587543540139",
	},
	{
		name:   "ip-minimize",
		method: "ip",
		srcs: []string{`
			USE German
			HOWTOUPDATE Status, Savings
			TOMINIMIZE COUNT(Credit = 1)`},
		golden: "{Status: = 0, Savings: = 0} objective=102.911 (base=528)",
		cands:  8, evals: 8, nodes: 1, objective: "102.91051430161139",
	},
	{
		name:   "lexicographic-three-mixed",
		method: "lex",
		srcs: []string{
			`USE German HOWTOUPDATE Status, Savings, Housing TOMAXIMIZE COUNT(Credit = 1)`,
			`USE German HOWTOUPDATE Status, Savings, Housing TOMINIMIZE AVG(POST(Savings))`,
			`USE German HOWTOUPDATE Status, Savings, Housing TOMAXIMIZE AVG(POST(Housing))`,
		},
		golden: "{Status: = 3, Savings: = 3, Housing: = 2} objective=1288.6 (base=528)",
		cands:  11, evals: 33, nodes: 3, objective: "1288.5982089181293",
	},
	{
		// The howto_ip benchmark's Amazon query over the Figure-1 join view,
		// recorded at the commit before the split search ran on column ranks
		// and the join on codes: every candidate fits forests on that view.
		name:   "ip-amazon-join-view",
		method: "ip",
		amazon: true,
		srcs: []string{`
			USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality,
			            AVG(T2.Rating) AS Rtng
			     FROM Product AS T1, Review AS T2
			     WHERE T1.PID = T2.PID
			     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality)
			WHEN Category = 'Laptop'
			HOWTOUPDATE Price, Color
			LIMIT 300 <= POST(Price) <= 1200
			TOMAXIMIZE AVG(POST(Rtng))`},
		golden: "{Price: no change, Color: = Black} objective=4.11526 (base=4.07518)",
		cands:  13, evals: 13, nodes: 1, objective: "4.1152632275132284",
	},
}

// load builds the case's database and causal model and parses its queries.
func (c howtoParityCase) load(t testing.TB) (*relation.Database, *causal.Model, []*hyperql.HowTo) {
	t.Helper()
	var db *relation.Database
	var model *causal.Model
	switch {
	case c.toy:
		db, model = dataset.Toy()
	case c.amazon:
		a := dataset.AmazonSyn(300, 6, 7)
		db, model = a.DB, a.Model
	case c.cont:
		g := dataset.GermanSynContinuous(1000, 7)
		db, model = g.DB, g.Model
	default:
		g := dataset.GermanSyn(1000, 7)
		db, model = g.DB, g.Model
	}
	qs := make([]*hyperql.HowTo, len(c.srcs))
	for i, src := range c.srcs {
		q, err := hyperql.ParseHowTo(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		qs[i] = q
	}
	return db, model, qs
}

func howtoParityEval(t testing.TB, c howtoParityCase) *Result {
	t.Helper()
	return howtoParityEvalOpts(t, c, Options{Engine: engine.Options{Seed: 7}})
}

// howtoParityEvalOpts is howtoParityEval with explicit options (the shard
// parity tests sweep the worker fan-out).
func howtoParityEvalOpts(t testing.TB, c howtoParityCase, opts Options) *Result {
	t.Helper()
	db, model, qs := c.load(t)
	var res *Result
	var err error
	switch c.method {
	case "ip":
		res, err = Evaluate(context.Background(), db, model, qs[0], opts)
	case "brute":
		res, err = BruteForce(context.Background(), db, model, qs[0], opts)
	case "mincost":
		res, err = MinimizeCost(context.Background(), db, model, qs[0], c.target, opts)
	case "lex":
		res, err = Lexicographic(context.Background(), db, model, qs, opts)
	default:
		t.Fatalf("%s: unknown method %q", c.name, c.method)
	}
	if err != nil {
		t.Fatalf("%s: evaluate: %v", c.name, err)
	}
	return res
}

func TestHowToParityGoldens(t *testing.T) {
	for _, c := range howtoParityCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := howtoParityEval(t, c)
			if got := res.String(); got != c.golden {
				t.Errorf("result = %s\n  golden = %s", got, c.golden)
			}
			if res.Candidates != c.cands || res.WhatIfEvals != c.evals || res.IPNodes != c.nodes {
				t.Errorf("candidates/whatif_evals/ip_nodes = %d/%d/%d, recorded %d/%d/%d",
					res.Candidates, res.WhatIfEvals, res.IPNodes, c.cands, c.evals, c.nodes)
			}
			if got := f17h(res.Objective); got != c.objective {
				t.Errorf("objective = %s, recorded %s", got, c.objective)
			}
		})
	}
}

// TestDumpHowToGoldens prints current results for golden regeneration after
// an intentional behaviour change; run with HYPER_DUMP_GOLDENS=1.
func TestDumpHowToGoldens(t *testing.T) {
	if os.Getenv("HYPER_DUMP_GOLDENS") == "" {
		t.Skip("set HYPER_DUMP_GOLDENS=1 to dump")
	}
	for _, c := range howtoParityCases {
		res := howtoParityEval(t, c)
		t.Logf("%s: %q cands=%d evals=%d nodes=%d objective=%q", c.name, res.String(),
			res.Candidates, res.WhatIfEvals, res.IPNodes, f17h(res.Objective))
	}
}
