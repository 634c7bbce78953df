package experiments

import (
	"context"
	"strings"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/howto"
)

// Fig11 reproduces Figure 11: runtime versus query complexity on
// Student-Syn. (a) What-if runtime as attributes are added to the FOR
// operator (the regressor conditions on them, so training cost grows);
// Indep stays flat because it ignores the extra conditioning. (b) How-to
// runtime as attributes are added to HOWTOUPDATE: HypeR's IP grows linearly
// in the number of candidate variables while Opt-HowTo grows exponentially
// (it is only executed for small attribute counts here; the growth rate is
// already conclusive).
func Fig11(cfg Config) error {
	cfg = cfg.defaults()
	st := dataset.StudentSynWide(cfg.n(10000), 5, 6, cfg.Seed)

	// (a) FOR complexity. Base query updates Assignment over the
	// participation view; FOR adds always-true PRE conditions on distinct
	// attributes.
	forAttrs := []string{"Age", "Gender", "Country", "Attendance", "Discussion",
		"HandRaised", "Announcements", "Extra1", "Extra2", "Extra3"}
	baseView := `
USE (SELECT P.SID, P.Course, P.Discussion, P.HandRaised, P.Announcements,
            P.Assignment, P.Grade, P.Extra1, P.Extra2, P.Extra3,
            S.Age, S.Gender, S.Country, S.Attendance
     FROM Participation AS P, Student AS S
     WHERE P.SID = S.SID)
UPDATE(Assignment) = 95
OUTPUT COUNT(POST(Grade) >= 60)`
	cfg.printf("Figure 11a: what-if runtime vs #attributes in FOR\n")
	cfg.printf("%-8s %12s %12s\n", "Attrs", "HypeR", "Indep")
	for _, k := range []int{0, 5, 10} {
		src := baseView
		if k > 0 {
			var conds []string
			for _, a := range forAttrs[:k] {
				conds = append(conds, "PRE("+a+") >= 0")
			}
			src += " FOR " + strings.Join(conds, " AND ")
		}
		q := mustParseWhatIf(src)
		// Forced forest estimator: the runtime growth with FOR attributes
		// comes from training the regressor on the extra conditioning
		// features (Section 5.5), which the paper's random forest exposes.
		_, tFull, err := timeEval(st.DB, st.Model, q,
			engine.Options{Mode: engine.ModeFull, Seed: cfg.Seed, Estimator: engine.EstimatorForest})
		if err != nil {
			return err
		}
		_, tIndep, err := timeEval(st.DB, st.Model, q, engine.Options{Mode: engine.ModeIndep, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		cfg.printf("%-8d %12s %12s\n", k, tFull.Round(time.Millisecond), tIndep.Round(time.Millisecond))
	}

	// (b) HOWTOUPDATE complexity. Candidates are limited to three values per
	// attribute via IN constraints so Opt-HowTo's exponent is the attribute
	// count, as in the paper.
	updAttrs := []string{"Discussion", "HandRaised", "Announcements",
		"Extra1", "Extra2", "Extra3", "Extra4", "Extra5", "Extra6"}
	st2 := dataset.StudentSynWide(cfg.n(2000), 5, 6, cfg.Seed+1)
	cfg.printf("\nFigure 11b: how-to runtime vs #attributes in HOWTOUPDATE\n")
	cfg.printf("%-8s %12s %14s\n", "Attrs", "HypeR (IP)", "Opt-HowTo")
	for _, k := range []int{2, 4, 6, 8} {
		if k > len(updAttrs) {
			break
		}
		var limits []string
		for _, a := range updAttrs[:k] {
			limits = append(limits, "POST("+a+") IN (0, 3, 5)")
		}
		src := `
USE (SELECT P.SID, P.Course, P.Discussion, P.HandRaised, P.Announcements,
            P.Assignment, P.Grade, P.Extra1, P.Extra2, P.Extra3, P.Extra4,
            P.Extra5, P.Extra6, S.Age, S.Gender, S.Country, S.Attendance
     FROM Participation AS P, Student AS S
     WHERE P.SID = S.SID)
HOWTOUPDATE ` + strings.Join(updAttrs[:k], ", ") + `
LIMIT ` + strings.Join(limits, " AND ") + `
TOMAXIMIZE AVG(POST(Grade))`
		q := mustParseHowTo(src)
		opts := howto.Options{Engine: engine.Options{Seed: cfg.Seed}}

		start := time.Now()
		if _, err := howto.Evaluate(context.Background(), st2.DB, st2.Model, q, opts); err != nil {
			return err
		}
		hTime := time.Since(start)

		bfTime := "skipped (exp.)"
		if k <= 4 {
			start = time.Now()
			if _, err := howto.BruteForce(context.Background(), st2.DB, st2.Model, q, opts); err != nil {
				return err
			}
			bfTime = time.Since(start).Round(time.Millisecond).String()
		}
		cfg.printf("%-8d %12s %14s\n", k, hTime.Round(time.Millisecond), bfTime)
	}
	return nil
}
