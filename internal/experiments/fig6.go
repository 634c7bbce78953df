package experiments

import (
	"hyper/internal/dataset"
	"hyper/internal/stats"
)

// Fig6 reproduces Figure 6 on German-Syn (1M): the effect of the
// HypeR-sampled training-sample size x on (a) query output — mean and
// standard deviation across five seeds, beside the full-data HypeR value —
// and (b) running time.
func Fig6(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	g := dataset.GermanSyn(r.n(1000000), r.Seed)
	n := g.Rel().Len()
	src := countQuery("German", "Status", 3, "Credit")
	row := Row{Dataset: "German-Syn (1M)", Query: "Status = 3", Truth: semShare(g, "Credit", "Status", 3)}

	row.Exp, row.Arm, row.X = "fig6a", HypeR, n
	r.add(r.whatIf(row, g.DB, g.Model, src, r.options(HypeR)))
	row.Arm = Sampled
	for _, frac := range []float64{0.025, 0.05, 0.1, 0.2, 0.5} {
		row.X = int(frac * float64(n))
		var s stats.Summary
		var last Row
		for k := int64(0); k < 5; k++ {
			o := r.options(Sampled)
			o.Seed, o.SampleSize = r.Seed+101*k, row.X
			last = r.whatIf(row, g.DB, g.Model, src, o)
			s.Add(last.Estimate)
		}
		last.Estimate, last.Spread = s.Mean(), s.StdDev()
		r.add(last)
	}

	// The figure's shape depends on regressor-training cost dominating, so
	// (b) forces the paper's random-forest estimator (the exact-frequency
	// index would make training nearly free). HypeR "at this sample size"
	// trains on exactly x rows; HypeR-sampled stops growing at its cap.
	row.Exp = "fig6b"
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		row.X = int(frac * float64(n))
		if row.X < 1000 {
			continue
		}
		for _, arm := range []string{HypeR, Sampled} {
			o := r.options(Forest)
			o.SampleSize = row.X
			if arm == Sampled {
				o.SampleSize = min(row.X, r.sampleCap())
			}
			row.Arm = arm
			r.add(r.whatIf(row, g.DB, g.Model, src, o))
		}
	}
	return r.done()
}
