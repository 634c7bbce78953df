package experiments

import (
	"fmt"

	"hyper/internal/dataset"
	"hyper/internal/engine"
)

// Ablations quantifies the design choices DESIGN.md calls out, beyond what
// the paper measures directly, on one German-Syn Count query:
//
//  1. Block-independent decomposition must not change any result
//     (Proposition 1): the estimate with and without it.
//  2. Estimator choice: the exact frequency index vs the boosted forest vs
//     the linear model, against the ground truth.
//  3. Estimator-cache reuse across how-to candidates: a first query trains
//     the forest, a second of identical structure reuses it.
func Ablations(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	g := dataset.GermanSyn(r.n(100000), r.Seed)
	row := Row{Dataset: "German-Syn (100k)", Query: "Status = 3", Truth: semShare(g, "Credit", "Status", 3)}
	src := countQuery("German", "Status", 3, "Credit")

	for _, t := range []struct {
		exp  string
		arms []string
	}{{"ablation-blocks", []string{HypeR, NoBlocks}}, {"ablation-estimators", []string{Freq, Forest, Linear}}} {
		row.Exp = t.exp
		for _, arm := range t.arms {
			row.Arm = arm
			r.add(r.whatIf(row, g.DB, g.Model, src, r.options(arm)))
		}
	}

	row.Exp = "ablation-cache"
	o := r.options(Forest)
	o.Cache = engine.NewCache()
	for v, arm := range []string{"cold (trains)", "warm (reuses)"} {
		v++
		row.Query, row.Arm, row.Truth = fmt.Sprint("Status = ", v), arm, semShare(g, "Credit", "Status", v)
		r.add(r.whatIf(row, g.DB, g.Model, countQuery("German", "Status", v, "Credit"), o))
	}
	return r.done()
}
