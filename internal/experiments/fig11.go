package experiments

import (
	"fmt"
	"strings"

	"hyper/internal/dataset"
	"hyper/internal/howto"
)

// Fig11 reproduces Figure 11: cost versus query complexity on Student-Syn
// with six synthetic participation attributes. (a) A what-if as x always-true
// PRE conditions on distinct attributes are added to FOR (the regressor
// conditions on them, so training cost grows; Indep ignores the extra
// conditioning); the HypeR arm forces the paper's random forest, which
// exposes that cost. (b) A how-to as x attributes are added to HOWTOUPDATE,
// each limited to three values so Opt-HowTo's exponent is the attribute
// count: the IP grows linearly in the candidate variables while Opt-HowTo
// grows exponentially, and is only executed for x <= 4.
func Fig11(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	view := fmt.Sprintf(participationView, wideExtras)

	st := dataset.StudentSynWide(r.n(10000), 5, 6, r.Seed)
	forAttrs := []string{"Age", "Gender", "Country", "Attendance", "Discussion",
		"HandRaised", "Announcements", "Extra1", "Extra2", "Extra3"}
	for _, k := range []int{0, 5, 10} {
		src := "USE " + view + " UPDATE(Assignment) = 95 OUTPUT COUNT(POST(Grade) >= 60)"
		if k > 0 {
			src += " FOR PRE(" + strings.Join(forAttrs[:k], ") >= 0 AND PRE(") + ") >= 0"
		}
		row := Row{Exp: "fig11a", Dataset: "Student-Syn wide", Query: fmt.Sprintf("Assignment = 95 | %d always-true conjuncts", k), X: k, Truth: none}
		row.Arm = HypeR
		r.add(r.whatIf(row, st.DB, st.Model, src, r.options(Forest)))
		row.Arm = Indep
		r.add(r.whatIf(row, st.DB, st.Model, src, r.options(Indep)))
	}

	st2 := dataset.StudentSynWide(r.n(2000), 5, 6, r.Seed+1)
	updAttrs := []string{"Discussion", "HandRaised", "Announcements",
		"Extra1", "Extra2", "Extra3", "Extra4", "Extra5", "Extra6"}
	for _, k := range []int{2, 3, 4, 6, 8} {
		q := r.parseHowTo("USE " + view + " HOWTOUPDATE " + strings.Join(updAttrs[:k], ", ") +
			" LIMIT POST(" + strings.Join(updAttrs[:k], ") IN (0, 3, 5) AND POST(") + ") IN (0, 3, 5)" +
			" TOMAXIMIZE AVG(POST(Grade))")
		row := Row{Exp: "fig11b", Dataset: "Student-Syn wide", Query: fmt.Sprint(k, " attributes in (0, 3, 5)"), X: k, Truth: none}
		for _, arm := range []string{HypeR, OptHowTo} {
			if arm == OptHowTo && k > 4 {
				continue
			}
			if res := r.howTo(arm, st2.DB, st2.Model, q, howto.Options{Engine: r.options(HypeR)}); res != nil {
				row.Arm = arm
				r.add(howToRow(row, res, 1))
			}
		}
	}
	return r.done()
}
