// Package experiments runs the paper's evaluation (Section 5) once. Each of
// the eleven runners returns typed rows — one Row per (table or figure,
// dataset, query, arm, x) with the estimate, the generators' ground truth
// where they have one, and the counts engine and howto report — and three
// readers consume them: cmd/hyperbench prints them with Render, TestFidelity
// holds the paper's shapes on them, and EXPERIMENTS.md at the repository root
// is their committed rendering without the machine-dependent runtimes
// (`go test -run TestFidelity ./internal/experiments -update` rewrites it).
package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
	"hyper/internal/prcm"
	"hyper/internal/relation"
)

// Config controls experiment scale.
type Config struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full size).
	Scale float64
	// Seed drives data generation and estimation.
	Seed int64
	// MaxBruteEvals skips an exponential baseline (Opt-HowTo, Opt-disc) that
	// would evaluate more update combinations than this; 0 leaves only each
	// figure's own limit.
	MaxBruteEvals int
}

// n scales a paper dataset size, with a floor to keep estimates meaningful.
func (c Config) n(paper int) int {
	scale := c.Scale
	if scale <= 0 {
		scale = 1
	}
	return max(int(float64(paper)*scale), 500)
}

// sampleCap is the most rows HypeR-sampled trains on: the paper's 100k,
// scaled like the data it samples.
func (c Config) sampleCap() int { return c.n(100000) }

// The arms of the evaluation.
const (
	HypeR    = "HypeR"
	Sampled  = "HypeR-sampled" // trained on at most sampleCap rows
	NB       = "HypeR-NB"      // no background knowledge: conditions on every attribute
	Indep    = "Indep"         // ignores the causal model
	OptHowTo = "Opt-HowTo"     // exhaustive search over the IP's candidates
	OptDisc  = "Opt-disc"      // Opt-HowTo on Figure 9's bucket grid
	GTDisc   = "GT-disc"       // the same search scored by the structural equations
	GTHowTo  = "GT-HowTo"      // Opt-HowTo scored by the structural equations
	NoBlocks = "no-blocks"
	Freq     = "freq"
	Forest   = "forest"
	Linear   = "linear"
)

// options is the one table of arms → engine.Options.
func (c Config) options(arm string) engine.Options {
	o := engine.Options{Seed: c.Seed}
	switch arm {
	case Sampled:
		o.SampleSize = c.sampleCap()
	case NB:
		o.Mode = engine.ModeNB
	case Indep:
		o.Mode = engine.ModeIndep
	case NoBlocks:
		o.DisableBlocks = true
	case Freq:
		o.Estimator = engine.EstimatorFreq
	case Forest:
		o.Estimator = engine.EstimatorForest
	case Linear:
		o.Estimator = engine.EstimatorLinear
	}
	return o
}

// Row is one measurement of the evaluation.
type Row struct {
	Exp     string // the table it belongs to: "table1", "fig6a", ... (see titles)
	Dataset string
	Query   string // the update asked about
	Arm     string
	X       int // the figure's x axis: sample size, buckets, rows or attributes

	// Estimate is the query output — a COUNT as a share of the view's rows —
	// or, for a how-to, the objective the method expects of its updates.
	// Truth is the same quantity under the generator's structural equations
	// (for a how-to, of the chosen updates); NaN when the generator has none.
	Estimate, Truth float64
	Spread          float64 // standard deviation of Estimate across seeds (Figure 6a)
	Quality         float64 // how-to: Truth over the ground-truth optimum's
	Runtime         time.Duration

	ViewRows, SampledRows, TrainedModels, Blocks int
	Backdoor                                     []string
	Candidates, WhatIfEvals, IPNodes             int
	Updates                                      string // the how-to's choices
}

// RelErr is |Estimate − Truth| relative to Truth.
func (r Row) RelErr() float64 { return math.Abs(r.Estimate-r.Truth) / math.Abs(r.Truth) }

// none is the Truth of a row whose generator has no ground truth.
var none = math.NaN()

// Experiment is one runner of the evaluation.
type Experiment struct {
	Name string
	Run  func(Config) ([]Row, error)
}

// All lists the runners in the paper's order.
var All = []Experiment{
	{"table1", Table1},
	{"fig6", Fig6},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"usecases", UseCases},
	{"backdoor", BackdoorSize},
	{"howto-quality", HowToQuality},
	{"ablation", Ablations},
}

// Select resolves a comma-separated list of experiment names ("all" selects
// every one) in the paper's order, rejecting any name it does not know.
func Select(spec string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.ContainsFunc(All, func(e Experiment) bool { return e.Name == name }) {
			known := make([]string, len(All))
			for i, e := range All {
				known[i] = e.Name
			}
			return nil, fmt.Errorf("unknown experiment %q; known: %s, all", name, strings.Join(known, ", "))
		}
		want[name] = true
	}
	var out []Experiment
	for _, e := range All {
		if want["all"] || want[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// The Section-5 views, each defined once.
const (
	amazonView = `(SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality,
            AVG(T2.Rating) AS Rtng
     FROM Product AS T1, Review AS T2
     WHERE T1.PID = T2.PID
     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality)`
	studentView = `(SELECT S.SID, S.Age, S.Gender, S.Country, S.Attendance,
            AVG(P.Grade) AS Grade
     FROM Student AS S, Participation AS P
     WHERE S.SID = P.SID
     GROUP BY S.SID, S.Age, S.Gender, S.Country, S.Attendance)`
	// participationView names the six Extra columns of StudentSynWide's
	// Participation relation through %s (empty on plain StudentSyn).
	participationView = `(SELECT P.SID, P.Course, P.Discussion, P.HandRaised, P.Announcements,
            P.Assignment, P.Grade, %sS.Age, S.Gender, S.Country, S.Attendance
     FROM Participation AS P, Student AS S
     WHERE P.SID = S.SID)`
	wideExtras = "P.Extra1, P.Extra2, P.Extra3, P.Extra4, P.Extra5, P.Extra6, "
)

// The Section-5 query templates.
const (
	germanCountFor = ` FOR PRE(Age) = 2` // Table 1 restricts countQuery to one age group
	adultCountSrc  = `USE Adult UPDATE(MaritalStatus) = %d OUTPUT COUNT(*) FOR POST(Income) = 1`
	germanHowToSrc = `USE German HOWTOUPDATE Status, Savings, Housing, CreditAmount TOMAXIMIZE COUNT(Credit = 1)`
)

// countQuery is the Figure 7 template: how many rows of table have outcome 1
// when attr is set to v.
func countQuery(table, attr string, v int, outcome string) string {
	return fmt.Sprintf("USE %s UPDATE(%s) = %d OUTPUT COUNT(%s = 1)", table, attr, v, outcome)
}

// amazonQuery multiplies the prices of the products when selects (every
// product if empty) by factor over the per-product rating view.
func amazonQuery(when string, factor float64, output string) string {
	if when != "" {
		when = " WHEN " + when
	}
	return fmt.Sprintf("USE %s%s UPDATE(Price) = %g * PRE(Price) OUTPUT %s", amazonView, when, factor, output)
}

// studentQuery sets attr to v: attendance over the per-student view, a
// participation attribute over the per-participation join.
func studentQuery(attr string, v int, output string) string {
	view := fmt.Sprintf(participationView, "")
	if attr == dataset.StudentAttendance {
		view = studentView
	}
	return fmt.Sprintf("USE %s UPDATE(%s) = %d OUTPUT %s", view, attr, v, output)
}

// run collects one runner's rows; the first error sticks and turns every
// later step into a no-op, so runners read as straight-line code.
type run struct {
	Config
	rows []Row
	err  error
}

func (r *run) add(rows ...Row) { r.rows = append(r.rows, rows...) }

func (r *run) done() ([]Row, error) {
	if r.err != nil {
		return nil, r.err
	}
	return r.rows, nil
}

// whatIf evaluates src and completes row with the estimate, the runtime and
// the engine's counts.
func (r *run) whatIf(row Row, db *relation.Database, model *causal.Model, src string, o engine.Options) Row {
	if r.err != nil {
		return row
	}
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		r.err = err
		return row
	}
	start := time.Now()
	res, err := engine.EvaluateContext(context.Background(), db, model, q, o)
	if err != nil {
		r.err = fmt.Errorf("%s %s %s: %w", row.Exp, row.Query, row.Arm, err)
		return row
	}
	row.Runtime = time.Since(start)
	row.Estimate = res.Value
	if q.Output.Func == hyperql.AggCount {
		row.Estimate /= float64(res.ViewRows)
	}
	row.ViewRows, row.SampledRows, row.TrainedModels = res.ViewRows, res.SampledRows, res.TrainedModels
	row.Blocks, row.Backdoor = res.Blocks, res.Backdoor
	return row
}

// parseHowTo parses a how-to template.
func (r *run) parseHowTo(src string) *hyperql.HowTo {
	if r.err != nil {
		return nil
	}
	q, err := hyperql.ParseHowTo(src)
	if err != nil {
		r.err = err
	}
	return q
}

// howTo answers q with the IP or, for the Opt arms, by exhaustive search. It
// returns nil when that search would exceed MaxBruteEvals (and after an
// error).
func (r *run) howTo(arm string, db *relation.Database, model *causal.Model, q *hyperql.HowTo, o howto.Options) *howto.Result {
	if r.err != nil {
		return nil
	}
	solve := howto.Evaluate
	if arm == OptHowTo || arm == OptDisc {
		solve = howto.BruteForce
		if r.MaxBruteEvals > 0 {
			cands, err := howto.Candidates(db, q, o)
			if err != nil {
				r.err = err
				return nil
			}
			if combinations(q, cands) > r.MaxBruteEvals {
				return nil
			}
		}
	}
	res, err := solve(context.Background(), db, model, q, o)
	if err != nil {
		r.err = fmt.Errorf("how-to %s: %w", arm, err)
		return nil
	}
	return res
}

// howToRow completes row from a how-to result: the objective (divided by
// per, the row count of a COUNT objective), the choices and howto's counts.
func howToRow(row Row, res *howto.Result, per int) Row {
	row.Estimate = res.Objective / float64(per)
	row.Runtime = res.Total
	row.Candidates, row.WhatIfEvals, row.IPNodes = res.Candidates, res.WhatIfEvals, res.IPNodes
	var chosen []string
	for _, c := range res.Choices {
		if c.Update != nil {
			chosen = append(chosen, c.String())
		}
	}
	row.Updates = "{" + strings.Join(chosen, ", ") + "}"
	return row
}

// germanHowToRow is howToRow for a COUNT(Credit = 1) how-to on a German SEM
// dataset, with the structural-equation share of good credit under the
// chosen updates as Truth and, given the ground-truth optimum count, Quality.
func germanHowToRow(row Row, g *dataset.Single, res *howto.Result, optimum float64) Row {
	row = howToRow(row, res, g.Rel().Len())
	achieved := semCount(g, "Credit", res.Updates())
	row.Truth = achieved / float64(g.Rel().Len())
	if optimum > 0 {
		row.Quality = achieved / optimum
	}
	return row
}

// combinations is the number of update combinations an exhaustive search
// over cands evaluates: every candidate or "no change", per attribute.
func combinations(q *hyperql.HowTo, cands map[string][]hyperql.UpdateSpec) int {
	n := 1
	for _, attr := range q.Attrs {
		n *= len(cands[attr]) + 1
	}
	return n
}

// semCount is the one ground-truth helper over World.Counterfactual: the
// number of rows with outcome = 1 once the structural equations are
// re-evaluated, with the recorded noise, under the updates (the observed
// count with none).
func semCount(g *dataset.Single, outcome string, updates []hyperql.UpdateSpec) float64 {
	ivs := make([]prcm.Intervention, len(updates))
	for i, u := range updates {
		ivs[i] = prcm.Intervention{Attr: u.Attr, Fn: applyTo(u)}
	}
	n := 0
	for _, v := range g.World.CounterfactualValues(outcome, ivs...) {
		if v == 1 {
			n++
		}
	}
	return float64(n)
}

// gtSearch is Opt-HowTo proper: the exhaustive search over q's candidates on
// a buckets-wide grid (0 = howto's default), scored by the structural
// equations instead of by what-if estimates.
func (r *run) gtSearch(g *dataset.Single, q *hyperql.HowTo, buckets int) *howto.Result {
	if r.err != nil {
		return &howto.Result{}
	}
	cands, err := howto.Candidates(g.DB, q, howto.Options{Buckets: buckets})
	if err != nil {
		r.err = err
		return &howto.Result{}
	}
	res, err := howto.BruteForceWith(q, cands, func(u []hyperql.UpdateSpec) (float64, error) {
		return semCount(g, "Credit", u), nil
	})
	if err != nil {
		r.err = err
		return &howto.Result{}
	}
	return res
}

// applyTo is u as a function on the float values of the structural equations.
func applyTo(u hyperql.UpdateSpec) func(pre float64) float64 {
	return func(pre float64) float64 { return u.Apply(relation.Float(pre)).AsFloat() }
}

// semShare is semCount of setting attr to v, as a share of the rows.
func semShare(g *dataset.Single, outcome, attr string, v int) float64 {
	set := hyperql.UpdateSpec{Attr: attr, Form: hyperql.UpdateSet, Const: relation.Int(int64(v))}
	return semCount(g, outcome, []hyperql.UpdateSpec{set}) / float64(g.Rel().Len())
}
