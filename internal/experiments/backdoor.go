package experiments

import (
	"hyper/internal/dataset"
	"hyper/internal/howto"
)

// BackdoorSize reproduces the backdoor-set-size analysis of Section 5.5: the
// same German-Syn (20k) Count query evaluated with the minimal backdoor set
// ({Age, Sex}, HypeR) versus conditioning on all attributes (HypeR-NB). The
// paper measures 7.2s vs 22.45s — a ~3x slowdown shape.
func BackdoorSize(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	g := dataset.GermanSyn(r.n(20000), r.Seed)
	row := Row{Exp: "backdoor", Dataset: "German-Syn (20k)", Query: "Status = 3", Truth: semShare(g, "Credit", "Status", 3)}
	for _, arm := range []string{HypeR, NB} {
		row.Arm = arm
		r.add(r.whatIf(row, g.DB, g.Model, countQuery("German", "Status", 3, "Credit"), r.options(arm)))
	}
	return r.done()
}

// HowToQuality reproduces the how-to quality study of Section 5.4: the
// German-Syn how-to over {Status, Savings, Housing, CreditAmount} beside the
// ground-truth Opt-HowTo, and the Student-Syn budget-one how-to that must
// pick Attendance — its total causal effect on the grade (direct plus
// through discussions, announcements and assignments) dominates.
func HowToQuality(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	o := howto.Options{Engine: r.options(HypeR)}

	g := dataset.GermanSyn(r.n(20000), r.Seed)
	q := r.parseHowTo(germanHowToSrc)
	opt := r.gtSearch(g, q, 0)
	row := Row{Exp: "howto-quality", Dataset: "German-Syn (20k)", Query: "Status, Savings, Housing, CreditAmount", Arm: HypeR}
	if res := r.howTo(HypeR, g.DB, g.Model, q, o); res != nil {
		r.add(germanHowToRow(row, g, res, opt.Objective))
	}
	row.Arm = GTHowTo
	r.add(germanHowToRow(row, g, opt, opt.Objective))

	st := dataset.StudentSyn(r.n(10000), 5, r.Seed+1)
	q = r.parseHowTo("USE " + studentView + " HOWTOUPDATE Attendance LIMIT UPDATES <= 1 TOMAXIMIZE AVG(POST(Grade))")
	if res := r.howTo(HypeR, st.DB, st.Model, q, o); res != nil {
		row = howToRow(Row{Exp: "howto-quality", Dataset: "Student-Syn", Query: "Attendance, at most one update", Arm: HypeR, Truth: st.AvgGrade()}, res, 1)
		for _, u := range res.Updates() {
			row.Truth = st.CounterfactualAvgGrade(u.Attr, applyTo(u))
		}
		r.add(row)
	}
	return r.done()
}
