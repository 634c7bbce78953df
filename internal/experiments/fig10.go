package experiments

import "hyper/internal/dataset"

// Fig10 reproduces Figure 10: what-if query output per updated attribute
// (each forced to its maximum) for German-Syn (1M) — share of good credit —
// and Student-Syn — average grade — comparing the structural-equation ground
// truth with HypeR, HypeR-sampled, HypeR-NB and Indep. The paper's shape:
// all HypeR variants within ~5% of ground truth; Indep biased by
// correlation (most visibly when updating Status).
func Fig10(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}

	g := dataset.GermanSyn(r.n(1000000), r.Seed)
	for _, a := range []struct {
		name string
		max  int
	}{{"Status", 3}, {"Savings", 3}, {"Housing", 2}, {"CreditAmount", 3}} {
		row := Row{Exp: "fig10a", Dataset: "German-Syn (1M)", Query: a.name, X: a.max, Truth: semShare(g, "Credit", a.name, a.max)}
		for _, arm := range []string{HypeR, Sampled, NB, Indep} {
			row.Arm = arm
			r.add(r.whatIf(row, g.DB, g.Model, countQuery("German", a.name, a.max, "Credit"), r.options(arm)))
		}
	}

	st := dataset.StudentSyn(r.n(10000), 5, r.Seed+1)
	for _, a := range []struct {
		name string
		max  int
	}{
		{dataset.StudentAssignment, 100}, {dataset.StudentAttendance, 9},
		{dataset.StudentAnnouncements, 10}, {dataset.StudentHandRaised, 10},
		{dataset.StudentDiscussion, 10},
	} {
		row := Row{Exp: "fig10b", Dataset: "Student-Syn", Query: a.name, X: a.max,
			Truth: st.CounterfactualAvgGrade(a.name, func(float64) float64 { return float64(a.max) })}
		for _, arm := range []string{HypeR, NB, Indep} {
			row.Arm = arm
			r.add(r.whatIf(row, st.DB, st.Model, studentQuery(a.name, a.max, "AVG(POST(Grade))"), r.options(arm)))
		}
	}
	return r.done()
}
