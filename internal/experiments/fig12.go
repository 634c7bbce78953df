package experiments

import (
	"context"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/howto"
)

const fig12HowToQuery = `
USE German
HOWTOUPDATE Status, Savings, Housing, CreditAmount
TOMAXIMIZE COUNT(Credit = 1)`

// Fig12 reproduces Figure 12: running time versus dataset size on
// German-Syn, averaged over five what-if queries (a) and for the how-to
// query above (b). The paper's shape: HypeR and Indep grow linearly;
// HypeR-sampled flattens once the size passes the 100k sample cap;
// Opt-HowTo is orders of magnitude slower than the IP-based how-to.
func Fig12(cfg Config) error {
	cfg = cfg.defaults()
	sizes := []int{cfg.n(10000), cfg.n(100000), cfg.n(250000), cfg.n(500000), cfg.n(1000000)}

	whatIfQueries := []string{
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Savings) = 0 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Housing) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 1`,
		`USE German UPDATE(CreditAmount) = 3 OUTPUT AVG(POST(Credit))`,
		`USE German UPDATE(Status) = 2 OUTPUT COUNT(*) FOR POST(Credit) = 1`,
	}

	cfg.printf("Figure 12a: what-if runtime vs dataset size (avg over %d queries)\n", len(whatIfQueries))
	cfg.printf("%-10s %12s %14s %12s\n", "Rows", "HypeR", "HypeR-sampled", "Indep")
	for _, size := range sizes {
		g := dataset.GermanSyn(size, cfg.Seed)
		var tFull, tSampled, tIndep time.Duration
		for qi, src := range whatIfQueries {
			q := mustParseWhatIf(src)
			seed := cfg.Seed + int64(qi)
			// The HypeR arms force the paper's forest estimator so training
			// cost scales with the x axis (and HypeR-sampled flattens past
			// its 100k cap); Indep keeps the default estimator.
			_, t1, err := timeEval(g.DB, g.Model, q,
				engine.Options{Mode: engine.ModeFull, Seed: seed, Estimator: engine.EstimatorForest})
			if err != nil {
				return err
			}
			_, t2, err := timeEval(g.DB, g.Model, q,
				engine.Options{Mode: engine.ModeFull, Seed: seed, SampleSize: 100000, Estimator: engine.EstimatorForest})
			if err != nil {
				return err
			}
			_, t3, err := timeEval(g.DB, g.Model, q, engine.Options{Mode: engine.ModeIndep, Seed: seed})
			if err != nil {
				return err
			}
			tFull += t1
			tSampled += t2
			tIndep += t3
		}
		k := time.Duration(len(whatIfQueries))
		cfg.printf("%-10d %12s %14s %12s\n", size,
			(tFull / k).Round(time.Millisecond), (tSampled / k).Round(time.Millisecond), (tIndep / k).Round(time.Millisecond))
	}

	cfg.printf("\nFigure 12b: how-to runtime vs dataset size\n")
	cfg.printf("%-10s %12s %14s %14s\n", "Rows", "HypeR", "HypeR-sampled", "Opt-HowTo")
	q := mustParseHowTo(fig12HowToQuery)
	for _, size := range sizes {
		g := dataset.GermanSyn(size, cfg.Seed)

		start := time.Now()
		if _, err := howto.Evaluate(context.Background(), g.DB, g.Model, q, howto.Options{Engine: engine.Options{Seed: cfg.Seed}}); err != nil {
			return err
		}
		tIP := time.Since(start)

		start = time.Now()
		if _, err := howto.Evaluate(context.Background(), g.DB, g.Model, q, howto.Options{
			Engine: engine.Options{Seed: cfg.Seed, SampleSize: 100000}}); err != nil {
			return err
		}
		tSampled := time.Since(start)

		bf := "skipped (exp.)"
		if size <= cfg.n(100000) {
			start = time.Now()
			if _, err := howto.BruteForce(context.Background(), g.DB, g.Model, q, howto.Options{Engine: engine.Options{Seed: cfg.Seed}}); err != nil {
				return err
			}
			bf = time.Since(start).Round(time.Millisecond).String()
		}
		cfg.printf("%-10d %12s %14s %14s\n", size,
			tIP.Round(time.Millisecond), tSampled.Round(time.Millisecond), bf)
	}
	return nil
}
