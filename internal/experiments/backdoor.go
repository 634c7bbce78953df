package experiments

import (
	"context"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
)

// BackdoorSize reproduces the backdoor-set-size runtime analysis of Section
// 5.5: the same German-Syn (20k) Count query evaluated with the minimal
// backdoor set ({Age, Sex}, ModeFull) versus conditioning on all attributes
// (ModeNB). The paper measures 7.2s vs 22.45s — a ~3x slowdown shape.
func BackdoorSize(cfg Config) error {
	cfg = cfg.defaults()
	g := dataset.GermanSyn(cfg.n(20000), cfg.Seed)
	q := mustParseWhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)

	full, tFull, err := timeEval(g.DB, g.Model, q, engine.Options{Mode: engine.ModeFull, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	nb, tNB, err := timeEval(g.DB, g.Model, q, engine.Options{Mode: engine.ModeNB, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	cfg.printf("Backdoor-set size vs runtime (German-Syn 20k)\n")
	cfg.printf("  backdoor %v (%d attrs): %s\n", full.Backdoor, len(full.Backdoor), tFull.Round(time.Millisecond))
	cfg.printf("  backdoor %v (%d attrs): %s\n", nb.Backdoor, len(nb.Backdoor), tNB.Round(time.Millisecond))
	return nil
}

// HowToQuality reproduces the how-to quality study of Section 5.4: the
// German-Syn how-to over {Status, Savings, Housing, CreditAmount} compared
// with the ground-truth Opt-HowTo, and the Student-Syn budget-one how-to
// that must pick Attendance.
func HowToQuality(cfg Config) error {
	cfg = cfg.defaults()

	g := dataset.GermanSyn(cfg.n(20000), cfg.Seed)
	q := mustParseHowTo(fig12HowToQuery)
	res, err := howto.Evaluate(context.Background(), g.DB, g.Model, q, howto.Options{Engine: engine.Options{Seed: cfg.Seed}})
	if err != nil {
		return err
	}
	gtEval := groundTruthCreditEval(g)
	cands, err := howto.Candidates(g.DB, q, howto.Options{})
	if err != nil {
		return err
	}
	opt, err := howto.BruteForceWith(q, cands, gtEval)
	if err != nil {
		return err
	}
	achieved, err := gtEval(res.Updates())
	if err != nil {
		return err
	}
	cfg.printf("How-to quality (German-Syn 20k)\n")
	cfg.printf("  HypeR:      %s\n", res)
	cfg.printf("  Opt-HowTo:  %s\n", opt)
	cfg.printf("  ground-truth value of HypeR's updates: %.0f (%.1f%% of optimum)\n",
		achieved, 100*achieved/opt.Objective)

	// Student-Syn: budget of one attribute; attendance must win because its
	// total causal effect on the grade (direct plus through discussions,
	// announcements and assignments) dominates.
	st := dataset.StudentSyn(cfg.n(10000), 5, cfg.Seed+1)
	src := `
USE (SELECT S.SID, S.Age, S.Gender, S.Country, S.Attendance,
            AVG(P.Assignment) AS Assignment, AVG(P.Discussion) AS Discussion,
            AVG(P.Grade) AS Grade
     FROM Student AS S, Participation AS P
     WHERE S.SID = P.SID
     GROUP BY S.SID, S.Age, S.Gender, S.Country, S.Attendance)
HOWTOUPDATE Attendance
LIMIT UPDATES <= 1
TOMAXIMIZE AVG(POST(Grade))`
	stQ, err := hyperql.ParseHowTo(src)
	if err != nil {
		return err
	}
	stRes, err := howto.Evaluate(context.Background(), st.DB, st.Model, stQ, howto.Options{Engine: engine.Options{Seed: cfg.Seed}})
	if err != nil {
		return err
	}
	cfg.printf("\nHow-to quality (Student-Syn, budget 1): %s\n", stRes)
	truth := st.CounterfactualAvgGrade(dataset.StudentAttendance, func(float64) float64 { return 9 })
	cfg.printf("  ground truth average grade at max attendance: %.2f (observed %.2f)\n", truth, st.AvgGrade())
	return nil
}
