package engine

import (
	"math"
	"strings"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/prcm"
	"hyper/internal/relation"
)

func TestMultiAttributeUpdate(t *testing.T) {
	g := dataset.GermanSyn(10000, 31)
	// Joint ground truth.
	post := g.World.Counterfactual(
		prcm.Intervention{Attr: "Status", Fn: func(float64) float64 { return 3 }},
		prcm.Intervention{Attr: "Savings", Fn: func(float64) float64 { return 3 }},
	)
	ci := post.Schema().MustIndex("Credit")
	good := 0
	for ix := range post.Len() {
		row := post.Row(ix)
		good += int(row[ci].AsInt())
	}
	truth := float64(good) / float64(post.Len())

	res := evalGerman(t, g,
		`USE German UPDATE(Status) = 3 AND UPDATE(Savings) = 3 OUTPUT COUNT(Credit = 1)`,
		Options{Seed: 1})
	got := res.Value / float64(g.Rel().Len())
	if math.Abs(got-truth) > 0.05 {
		t.Errorf("joint update: HypeR %.3f vs truth %.3f", got, truth)
	}
}

func TestUpdateScaleAndShiftForms(t *testing.T) {
	g := dataset.GermanSynContinuous(8000, 33)
	// Shift: CreditAmount + 2000.
	post := g.World.Counterfactual(prcm.Intervention{Attr: "CreditAmount", Fn: func(p float64) float64 { return p + 2000 }})
	truth := fracOf(post, "Credit", 1)
	base := fracOf(g.Rel(), "Credit", 1)
	res := evalGerman(t, g,
		`USE German UPDATE(CreditAmount) = 2000 + PRE(CreditAmount) OUTPUT COUNT(Credit = 1)`,
		Options{Seed: 1})
	got := res.Value / float64(g.Rel().Len())
	// A +2000 shift pushes a third of tuples beyond the observed range, so
	// the forest extrapolates; require the right direction and coarse
	// magnitude.
	if got <= base {
		t.Errorf("shift update should raise good credit above base %.3f, got %.3f", base, got)
	}
	if math.Abs(got-truth) > 0.08 {
		t.Errorf("shift update: %.3f vs truth %.3f", got, truth)
	}
	// Scale: 1.5x.
	post = g.World.Counterfactual(prcm.Intervention{Attr: "CreditAmount", Fn: func(p float64) float64 { return 1.5 * p }})
	truth = fracOf(post, "Credit", 1)
	res = evalGerman(t, g,
		`USE German UPDATE(CreditAmount) = 1.5 * PRE(CreditAmount) OUTPUT COUNT(Credit = 1)`,
		Options{Seed: 1})
	if math.Abs(res.Value/float64(g.Rel().Len())-truth) > 0.06 {
		t.Errorf("scale update: %.3f vs truth %.3f", res.Value/float64(g.Rel().Len()), truth)
	}
}

func fracOf(rel *relation.Relation, col string, val int64) float64 {
	ci := rel.Schema().MustIndex(col)
	n := 0
	for ix := range rel.Len() {
		row := rel.Row(ix)
		if row[ci].AsInt() == val {
			n++
		}
	}
	return float64(n) / float64(rel.Len())
}

func TestCrossTupleSummaryEffect(t *testing.T) {
	// On the Amazon model, cutting ONE brand's laptop prices must affect the
	// whole category through the ψ group-mean feature: the updated products'
	// relative price drops and their competitors' relative price rises. (A
	// uniform within-category price move leaves relative prices unchanged
	// and is not identified through this channel — the ψ feature exists for
	// exactly the single-seller scenario of the paper's introduction.)
	am := dataset.AmazonSyn(1500, 12, 35)
	q, err := hyperql.ParseWhatIf(`
USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality,
            AVG(T2.Rating) AS Rtng
     FROM Product AS T1, Review AS T2
     WHERE T1.PID = T2.PID
     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality)
WHEN Category = 'Laptop' AND Brand = 'Asus'
UPDATE(Price) = 0.5 * PRE(Price)
OUTPUT AVG(POST(Rtng))
FOR PRE(Category) = 'Laptop'`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(am.DB, am.Model, q, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The engine must have constructed a ψ summary feature and blocks per
	// category.
	if res.Blocks != 5 {
		t.Errorf("blocks = %d, want 5 (one per category)", res.Blocks)
	}
	// Selected products: Asus laptops, identified via the Product relation
	// (row order equals product index).
	prod := am.DB.Relation("Product")
	bi := prod.Schema().MustIndex("Brand")
	ci := prod.Schema().MustIndex("Category")
	asusLaptop := map[int]bool{}
	for i := range prod.Len() {
		row := prod.Row(i)
		if row[bi].AsString() == "Asus" && row[ci].AsString() == "Laptop" {
			asusLaptop[i] = true
		}
	}
	sel := func(i int) bool { return asusLaptop[i] }
	truth := am.CounterfactualCategoryAvgRating("Laptop", sel, func(p float64) float64 { return 0.5 * p })
	base := am.CounterfactualCategoryAvgRating("Laptop", nil, func(p float64) float64 { return p })
	if truth <= base {
		t.Fatalf("fixture: an Asus price cut should raise laptop ratings (%.3f vs %.3f)", truth, base)
	}
	if res.Value <= base {
		t.Errorf("engine %.3f should exceed base %.3f after the cut", res.Value, base)
	}
	if math.Abs(res.Value-truth) > 0.35 {
		t.Errorf("engine %.3f vs exact counterfactual %.3f", res.Value, truth)
	}
}

func TestEstimatorFallbackOnUnsupportedUpdate(t *testing.T) {
	// Updating Announcements to a value that (almost) never occurs forces
	// the freq->forest fallback; the effect estimate must move in the right
	// direction instead of collapsing to the base value.
	st := dataset.StudentSyn(3000, 5, 37)
	base := st.AvgGrade()
	truth := st.CounterfactualAvgGrade(dataset.StudentAnnouncements, func(float64) float64 { return 10 })
	q, err := hyperql.ParseWhatIf(`
USE (SELECT P.SID, P.Course, P.Discussion, P.HandRaised, P.Announcements,
            P.Assignment, P.Grade, S.Age, S.Gender, S.Country, S.Attendance
     FROM Participation AS P, Student AS S
     WHERE P.SID = S.SID)
UPDATE(Announcements) = 10
OUTPUT AVG(POST(Grade))`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(st.DB, st.Model, q, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatorUsed == "freq" && math.Abs(res.Value-base) < 0.5 {
		t.Errorf("estimate %.2f collapsed to base %.2f (truth %.2f)", res.Value, base, truth)
	}
	if res.Value <= base {
		t.Errorf("raising announcements should raise grades: %.2f <= base %.2f", res.Value, base)
	}
}

// TestDryRunNamesFallbackEstimator: a dry run reports the estimator the
// evaluation uses, after the freq -> forest fallback. Updating MaritalStatus
// to 0 on Adult-Syn leaves most prediction points without support, so the
// evaluation falls back to the forest; a plan naming freq would describe an
// estimator that never answers the query.
func TestDryRunNamesFallbackEstimator(t *testing.T) {
	a := dataset.AdultSyn(8000, 7)
	q, err := hyperql.ParseWhatIf(`USE Adult UPDATE(MaritalStatus) = 0 OUTPUT COUNT(*) FOR POST(Income) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(a.DB, a.Model, q, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dry, err := Evaluate(a.DB, a.Model, q, Options{Seed: 7, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatorUsed != "forest" {
		t.Fatalf("evaluation used %q; the query no longer exercises the fallback", res.EstimatorUsed)
	}
	if dry.EstimatorUsed != res.EstimatorUsed || dry.SampledRows != res.SampledRows {
		t.Errorf("dry run names %s over %d rows, the evaluation used %s over %d",
			dry.EstimatorUsed, dry.SampledRows, res.EstimatorUsed, res.SampledRows)
	}
}

func TestSampledDeterministicPerSeed(t *testing.T) {
	g := dataset.GermanSyn(10000, 39)
	opts := Options{Seed: 5, SampleSize: 2000}
	a := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, opts)
	b := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, opts)
	if a.Value != b.Value {
		t.Errorf("same seed must reproduce: %.4f vs %.4f", a.Value, b.Value)
	}
	opts.Seed = 6
	c := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, opts)
	if a.Value == c.Value {
		t.Log("different seeds produced identical values (possible but unlikely)")
	}
}

func TestCacheReuseAcrossCandidates(t *testing.T) {
	g := dataset.GermanSyn(5000, 41)
	cache := NewCache()
	opts := Options{Seed: 1, Cache: cache}
	r1 := evalGerman(t, g, `USE German UPDATE(Status) = 1 OUTPUT COUNT(Credit = 1)`, opts)
	r2 := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, opts)
	// Second query must reuse the trained estimator: same estimator kind,
	// and crucially identical results to a cold evaluation.
	cold := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Options{Seed: 1})
	if math.Abs(r2.Value-cold.Value) > 1e-9 {
		t.Errorf("cached evaluation %.4f != cold evaluation %.4f", r2.Value, cold.Value)
	}
	if r1.Value >= r2.Value {
		t.Errorf("status 1 (%.1f) should lift credit less than status 3 (%.1f)", r1.Value, r2.Value)
	}
}

func TestErrorPaths(t *testing.T) {
	g := dataset.GermanSyn(500, 43)
	cases := []struct {
		src  string
		want string
	}{
		{`USE Nope UPDATE(Status) = 3 OUTPUT COUNT(*)`, "unknown table"},
		{`USE German UPDATE(Nope) = 3 OUTPUT COUNT(*)`, `offset 18: unknown column "Nope" in German`},
		{`USE German UPDATE(ID) = 3 OUTPUT COUNT(*)`, "immutable"},
		{`USE German UPDATE(Status) = 3 OUTPUT AVG(POST(Nope))`, `offset 46: unknown column "Nope" in German`},
		{`USE German UPDATE(Status) = 3 AND UPDATE(Status) = 2 OUTPUT COUNT(*)`, "updated twice"},
		{`USE German UPDATE(Status) = 3 OUTPUT AVG(PRE(Credit))`, "PRE"},
		{`USE German UPDATE(Status) = 3 OUTPUT COUNT(*) FOR PRE(Nope) = 1`, `offset 54: unknown column "Nope" in German`},
		{`USE German WHEN Nope = 1 UPDATE(Status) = 3 OUTPUT COUNT(*)`, `offset 16: unknown column "Nope" in German`},
	}
	for _, c := range cases {
		q, err := hyperql.ParseWhatIf(c.src)
		if err != nil {
			t.Errorf("%q failed to parse: %v", c.src, err)
			continue
		}
		_, err = Evaluate(g.DB, g.Model, q, Options{Seed: 1})
		if err == nil {
			t.Errorf("%q should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q error = %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestForWithPostCondition(t *testing.T) {
	// Figure 7b template: COUNT(*) with POST condition in FOR.
	g := dataset.GermanSyn(10000, 47)
	post := g.World.Counterfactual(prcm.Intervention{Attr: "Status", Fn: func(float64) float64 { return 3 }})
	truth := fracOf(post, "Credit", 1)
	res := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(*) FOR POST(Credit) = 1`, Options{Seed: 1})
	if math.Abs(res.Value/float64(g.Rel().Len())-truth) > 0.05 {
		t.Errorf("POST-in-FOR: %.3f vs truth %.3f", res.Value/float64(g.Rel().Len()), truth)
	}
	// It must agree with the equivalent COUNT(Credit=1) formulation.
	alt := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Options{Seed: 1})
	if math.Abs(res.Value-alt.Value) > 0.02*float64(g.Rel().Len()) {
		t.Errorf("FOR-POST %.1f and COUNT-cond %.1f formulations disagree", res.Value, alt.Value)
	}
}

func TestDisjunctiveForWithInclusionExclusion(t *testing.T) {
	g := dataset.GermanSyn(10000, 53)
	// P(post credit good OR post savings low) via inclusion-exclusion must
	// lie between max of the parts and their sum.
	both := evalGerman(t, g,
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(*) FOR POST(Credit) = 1 OR POST(Savings) = 0`,
		Options{Seed: 1})
	a := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(*) FOR POST(Credit) = 1`, Options{Seed: 1})
	b := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(*) FOR POST(Savings) = 0`, Options{Seed: 1})
	if both.Value < math.Max(a.Value, b.Value)-1 {
		t.Errorf("P(A or B) = %.1f below max(%.1f, %.1f)", both.Value, a.Value, b.Value)
	}
	if both.Value > a.Value+b.Value+1 {
		t.Errorf("P(A or B) = %.1f above sum %.1f", both.Value, a.Value+b.Value)
	}
	if both.Disjuncts != 2 {
		t.Errorf("disjuncts = %d", both.Disjuncts)
	}
}

func TestIndepIgnoresBackdoor(t *testing.T) {
	g := dataset.GermanSyn(2000, 59)
	res := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Options{Mode: ModeIndep, Seed: 1})
	if len(res.Backdoor) != 0 {
		t.Errorf("Indep backdoor = %v, want empty", res.Backdoor)
	}
}

func TestResultString(t *testing.T) {
	g := dataset.GermanSyn(1000, 61)
	res := evalGerman(t, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Options{Seed: 1})
	s := res.String()
	for _, want := range []string{"value=", "mode=HypeR", "backdoor=", "est="} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() missing %q: %s", want, s)
		}
	}
}
