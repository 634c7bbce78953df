package experiments

import (
	"context"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
	"hyper/internal/prcm"
	"hyper/internal/relation"
)

const fig9Query = `
USE German
HOWTOUPDATE CreditAmount, Duration, InstallmentRate
LIMIT 0 <= POST(CreditAmount) <= 6000 AND 6 <= POST(Duration) <= 48 AND 1 <= POST(InstallmentRate) <= 4
TOMAXIMIZE COUNT(Credit = 1)`

// Fig9 reproduces Figure 9: how-to solution quality and running time on
// German-Syn (20k) with continuous attributes, as a function of the number
// of discretization buckets. Quality is the ratio between the ground-truth
// objective achieved by each method's chosen updates and the ground-truth
// optimum (computed on a fine grid). The paper's shape: quality within 10%
// of optimal from 4 buckets up; Opt-discrete's runtime grows exponentially
// with buckets while HypeR's IP grows only linearly.
func Fig9(cfg Config) error {
	cfg = cfg.defaults()
	g := dataset.GermanSynContinuous(cfg.n(20000), cfg.Seed)
	q := mustParseHowTo(fig9Query)

	gtEval := groundTruthCreditEval(g)
	// Ground-truth optimum over a fine grid (stands in for Opt-HowTo on the
	// continuous domain).
	fineCands, err := howto.Candidates(g.DB, q, howto.Options{Buckets: 16})
	if err != nil {
		return err
	}
	opt, err := howto.BruteForceWith(q, fineCands, gtEval)
	if err != nil {
		return err
	}

	cfg.printf("Figure 9: how-to quality and runtime vs discretization buckets (GT optimum = %.0f)\n", opt.Objective)
	cfg.printf("%-8s %12s %14s %14s %14s %16s\n", "Buckets", "HypeR qual", "Opt-disc qual", "GT-disc qual", "HypeR time", "Opt-disc time")
	for _, buckets := range []int{1, 2, 4, 6, 8, 10} {
		// GT-disc: the best achievable on this bucket grid, by exhaustive
		// search with the exact structural-equation objective. It isolates
		// pure discretization loss from estimation error.
		bCands, err := howto.Candidates(g.DB, q, howto.Options{Buckets: buckets})
		if err != nil {
			return err
		}
		gtDisc, err := howto.BruteForceWith(q, bCands, gtEval)
		if err != nil {
			return err
		}
		hOpts := howto.Options{Engine: engine.Options{Seed: cfg.Seed}, Buckets: buckets}
		start := time.Now()
		hRes, err := howto.Evaluate(context.Background(), g.DB, g.Model, q, hOpts)
		if err != nil {
			return err
		}
		hTime := time.Since(start)
		hVal, err := gtEval(hRes.Updates())
		if err != nil {
			return err
		}

		start = time.Now()
		dRes, err := howto.BruteForce(context.Background(), g.DB, g.Model, q, hOpts)
		if err != nil {
			return err
		}
		dTime := time.Since(start)
		dVal, err := gtEval(dRes.Updates())
		if err != nil {
			return err
		}

		cfg.printf("%-8d %12.3f %14.3f %14.3f %14s %16s\n", buckets,
			hVal/opt.Objective, dVal/opt.Objective, gtDisc.Objective/opt.Objective,
			hTime.Round(time.Millisecond), dTime.Round(time.Millisecond))
	}
	return nil
}

// groundTruthCreditEval returns an evaluator computing the exact
// post-update count of good-credit rows via the structural equations.
func groundTruthCreditEval(g *dataset.Single) func([]hyperql.UpdateSpec) (float64, error) {
	return func(updates []hyperql.UpdateSpec) (float64, error) {
		var ivs []prcm.Intervention
		for _, u := range updates {
			u := u
			ivs = append(ivs, prcm.Intervention{Attr: u.Attr, Fn: func(pre float64) float64 {
				return u.Apply(relation.Float(pre)).AsFloat()
			}})
		}
		post := g.World.Counterfactual(ivs...)
		return fracGood(post, "Credit", 1) * float64(post.Len()), nil
	}
}
