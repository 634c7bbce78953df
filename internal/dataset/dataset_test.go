package dataset

import (
	"math"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/prcm"
	"hyper/internal/relation"
)

func TestGermanSynShape(t *testing.T) {
	g := GermanSyn(5000, 1)
	rel := g.Rel()
	if rel.Len() != 5000 {
		t.Fatalf("rows = %d", rel.Len())
	}
	for _, col := range []string{"Age", "Sex", "Status", "Savings", "Housing", "CreditAmount", "Credit"} {
		if !rel.Schema().Has(col) {
			t.Errorf("missing column %s", col)
		}
	}
	if err := g.Model.Validate(g.DB); err != nil {
		t.Fatalf("model invalid: %v", err)
	}
	// Credit should be a non-degenerate binary outcome.
	ci := rel.Schema().MustIndex("Credit")
	ones := 0
	for ix := range rel.Len() {
		row := rel.Row(ix)
		v := row[ci].AsInt()
		if v != 0 && v != 1 {
			t.Fatalf("credit value %d", v)
		}
		ones += int(v)
	}
	frac := float64(ones) / float64(rel.Len())
	if frac < 0.2 || frac > 0.9 {
		t.Errorf("good-credit fraction %.3f is degenerate", frac)
	}
}

func TestGermanSynConfoundingStructure(t *testing.T) {
	g := GermanSyn(2000, 2)
	// Age must confound Status and Credit: Age -> Status and Age -> Credit.
	if !g.Model.Attr.IsDescendant("German.Status", "German.Age") {
		t.Error("Age should cause Status")
	}
	if !g.Model.Attr.IsDescendant("German.Credit", "German.Age") {
		t.Error("Age should cause Credit")
	}
	// The how-to update attributes must be mutually path-free (Section 3.1
	// requirement for multi-attribute updates).
	attrs := []string{"German.Status", "German.Savings", "German.Housing", "German.CreditAmount"}
	for _, a := range attrs {
		for _, b := range attrs {
			if a != b && g.Model.Attr.IsDescendant(b, a) {
				t.Errorf("%s and %s must not be causally connected", a, b)
			}
		}
	}
	// {Age, Sex} is a valid backdoor set for Status -> Credit.
	if !g.Model.Attr.IsBackdoorSet("German.Status", []string{"German.Credit"}, []string{"German.Age", "German.Sex"}) {
		t.Error("{Age, Sex} should satisfy the backdoor criterion")
	}
}

func TestGermanSynStatusEffectDirection(t *testing.T) {
	g := GermanSyn(20000, 3)
	hi := g.World.Counterfactual(prcm.Intervention{Attr: "Status", Fn: func(float64) float64 { return 3 }})
	lo := g.World.Counterfactual(prcm.Intervention{Attr: "Status", Fn: func(float64) float64 { return 0 }})
	fhi, flo := fracCredit(hi), fracCredit(lo)
	if fhi <= flo+0.1 {
		t.Errorf("status effect too weak: max %.3f vs min %.3f", fhi, flo)
	}
}

func fracCredit(rel *relation.Relation) float64 {
	ci := rel.Schema().MustIndex("Credit")
	n := 0
	for ix := range rel.Len() {
		row := rel.Row(ix)
		n += int(row[ci].AsInt())
	}
	return float64(n) / float64(rel.Len())
}

func TestGermanSynContinuousAttrs(t *testing.T) {
	g := GermanSynContinuous(1000, 4)
	for _, col := range []string{"CreditAmount", "Duration", "InstallmentRate"} {
		ci := g.Rel().Schema().MustIndex(col)
		if g.Rel().Schema().Col(ci).Kind != 3 { // KindFloat
			t.Errorf("%s should be continuous", col)
		}
	}
	lo, hi, ok := g.Rel().MinMax("CreditAmount")
	if !ok || hi-lo < 1000 {
		t.Errorf("CreditAmount range [%g, %g] too narrow", lo, hi)
	}
}

func TestGermanLikeAttributeCount(t *testing.T) {
	g := GermanLike(1000, 5)
	// Paper's German dataset has 21 attributes (plus our ID key).
	if got := g.Rel().Schema().Len() - 1; got != 21 {
		t.Errorf("attribute count = %d, want 21", got)
	}
}

func TestAdultSynMaritalEffect(t *testing.T) {
	a := AdultSyn(20000, 6)
	if got := a.Rel().Schema().Len() - 1; got != 15 {
		t.Errorf("attribute count = %d, want 15", got)
	}
	married := a.World.Counterfactual(prcm.Intervention{Attr: "MaritalStatus", Fn: func(float64) float64 { return 1 }})
	single := a.World.Counterfactual(prcm.Intervention{Attr: "MaritalStatus", Fn: func(float64) float64 { return 0 }})
	mi := married.Schema().MustIndex("Income")
	fm, fs := 0, 0
	for i := 0; i < married.Len(); i++ {
		fm += int(married.Row(i)[mi].AsInt())
		fs += int(single.Row(i)[mi].AsInt())
	}
	gap := float64(fm-fs) / float64(married.Len())
	// The paper reports 38% vs <9%; our synthetic stand-in must preserve a
	// large positive gap.
	if gap < 0.2 {
		t.Errorf("married-vs-single income gap %.3f too small", gap)
	}
}

func TestStudentSynStructure(t *testing.T) {
	st := StudentSyn(500, 5, 7)
	if st.DB.Relation("Student").Len() != 500 {
		t.Fatal("student rows")
	}
	if st.DB.Relation("Participation").Len() != 2500 {
		t.Fatal("participation rows")
	}
	if err := st.Model.Validate(st.DB); err != nil {
		t.Fatalf("model invalid: %v", err)
	}
	if len(st.DB.ForeignKeys()) != 1 {
		t.Error("FK missing")
	}
	// Block decomposition: every student + their participations is a block.
	_, blocks, err := causal.RowBlocks(st.DB, st.Model)
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 500 {
		t.Errorf("blocks = %d, want 500", blocks)
	}
}

func TestStudentAttendanceHasLargestTotalEffect(t *testing.T) {
	st := StudentSyn(3000, 5, 8)
	base := st.AvgGrade()
	effects := map[string]float64{
		StudentAttendance:    st.CounterfactualAvgGrade(StudentAttendance, func(float64) float64 { return 9 }) - base,
		StudentAssignment:    st.CounterfactualAvgGrade(StudentAssignment, func(float64) float64 { return 100 }) - base,
		StudentDiscussion:    st.CounterfactualAvgGrade(StudentDiscussion, func(float64) float64 { return 10 }) - base,
		StudentHandRaised:    st.CounterfactualAvgGrade(StudentHandRaised, func(float64) float64 { return 10 }) - base,
		StudentAnnouncements: st.CounterfactualAvgGrade(StudentAnnouncements, func(float64) float64 { return 10 }) - base,
	}
	for attr, eff := range effects {
		if attr == StudentAttendance {
			continue
		}
		if effects[StudentAttendance] <= eff {
			t.Errorf("attendance effect %.2f should exceed %s effect %.2f (Section 5.4)",
				effects[StudentAttendance], attr, eff)
		}
	}
	// Among participation attributes, assignment dominates (Section 5.3).
	for _, attr := range []string{StudentDiscussion, StudentHandRaised, StudentAnnouncements} {
		if effects[StudentAssignment] <= effects[attr] {
			t.Errorf("assignment effect %.2f should exceed %s effect %.2f",
				effects[StudentAssignment], attr, effects[attr])
		}
	}
}

func TestStudentSynWideExtras(t *testing.T) {
	st := StudentSynWide(200, 3, 4, 9)
	p := st.DB.Relation("Participation")
	for i := 1; i <= 4; i++ {
		if !p.Schema().Has("Extra" + string(rune('0'+i))) {
			t.Errorf("Extra%d missing", i)
		}
	}
}

func TestAmazonSynStructure(t *testing.T) {
	am := AmazonSyn(500, 10, 10)
	if am.DB.Relation("Product").Len() != 500 {
		t.Fatal("products")
	}
	if am.DB.Relation("Review").Len() < 2000 {
		t.Errorf("too few reviews: %d", am.DB.Relation("Review").Len())
	}
	if err := am.Model.Validate(am.DB); err != nil {
		t.Fatalf("model invalid: %v", err)
	}
	if len(am.Model.Cross) != 1 {
		t.Error("cross edge missing")
	}
	// Ratings bounded 1..5.
	rev := am.DB.Relation("Review")
	ri := rev.Schema().MustIndex("Rating")
	for ix := range rev.Len() {
		row := rev.Row(ix)
		if v := row[ri].AsInt(); v < 1 || v > 5 {
			t.Fatalf("rating %d out of range", v)
		}
	}
}

func TestAmazonPriceCutRaisesRatings(t *testing.T) {
	am := AmazonSyn(2000, 12, 11)
	baseAvg, _ := am.CounterfactualAvgRating(nil, func(p float64) float64 { return p })
	cutAvg, _ := am.CounterfactualAvgRating(nil, func(p float64) float64 { return 0.7 * p })
	if cutAvg <= baseAvg {
		t.Errorf("price cut should raise ratings: %.3f -> %.3f", baseAvg, cutAvg)
	}
	// Identity counterfactual must reproduce observed ratings exactly.
	rev := am.DB.Relation("Review")
	ri := rev.Schema().MustIndex("Rating")
	sum := 0.0
	for ix := range rev.Len() {
		row := rev.Row(ix)
		sum += row[ri].AsFloat()
	}
	if math.Abs(baseAvg-sum/float64(rev.Len())) > 1e-9 {
		t.Errorf("identity counterfactual %.4f != observed %.4f", baseAvg, sum/float64(rev.Len()))
	}
}

// TestAmazonShareRated pins the per-product ground truth against a count made
// by hand from the generated Review relation: on a world small enough to
// read, the identity update must give the share of products whose observed
// mean rating is at least 4 — a different quantity from the share of reviews
// rated at least 4, which CounterfactualAvgRating reports.
func TestAmazonShareRated(t *testing.T) {
	am := AmazonSyn(12, 3, 5)
	rev := am.DB.Relation("Review")
	pi, ri := rev.Schema().MustIndex("PID"), rev.Schema().MustIndex("Rating")
	sum, n := map[int64]float64{}, map[int64]int{}
	reviewsGE4 := 0
	for ix := range rev.Len() {
		row := rev.Row(ix)
		sum[row[pi].AsInt()] += row[ri].AsFloat()
		n[row[pi].AsInt()]++
		if row[ri].AsInt() >= 4 {
			reviewsGE4++
		}
	}
	productsGE4 := 0
	for pid := range sum {
		if sum[pid]/float64(n[pid]) >= 4 {
			productsGE4++
		}
	}
	if len(sum) != 12 {
		t.Fatalf("%d products have reviews, want all 12", len(sum))
	}
	identity := func(p float64) float64 { return p }
	if got, want := am.CounterfactualShareRated(4, identity), float64(productsGE4)/12; got != want {
		t.Errorf("share of products rated >= 4: %v, by hand %d of 12 = %v", got, productsGE4, want)
	}
	if _, perReview := am.CounterfactualAvgRating(nil, identity); perReview != float64(reviewsGE4)/float64(rev.Len()) {
		t.Errorf("share of reviews rated >= 4: %v, by hand %d of %d", perReview, reviewsGE4, rev.Len())
	}
	if productsGE4*rev.Len() == reviewsGE4*12 {
		t.Errorf("the per-product and per-review shares coincide (%d of 12, %d of %d): pick a seed that tells them apart", productsGE4, reviewsGE4, rev.Len())
	}
	if cut := am.CounterfactualShareRated(4, func(p float64) float64 { return 0.5 * p }); cut < float64(productsGE4)/12 {
		t.Errorf("halving every price lowered the share: %v", cut)
	}
}

func TestToyMatchesFigure1(t *testing.T) {
	db, model := Toy()
	prod, rev := db.Relation("Product"), db.Relation("Review")
	if prod.Len() != 5 || rev.Len() != 6 {
		t.Fatalf("toy sizes: %d products, %d reviews", prod.Len(), rev.Len())
	}
	if err := model.Validate(db); err != nil {
		t.Fatalf("toy model invalid: %v", err)
	}
	// Spot-check tuple p2 (Asus laptop at 529).
	found := false
	pi := prod.Schema().MustIndex("Brand")
	ci := prod.Schema().MustIndex("Price")
	for ix := range prod.Len() {
		row := prod.Row(ix)
		if row[pi].AsString() == "Asus" && row[ci].AsFloat() == 529 {
			found = true
		}
	}
	if !found {
		t.Error("Asus laptop at 529 missing")
	}
	// Example 7: decomposition into laptops(+reviews), camera(+review), books.
	_, blocks, err := causal.RowBlocks(db, model)
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 3 {
		t.Errorf("toy blocks = %d, want 3 (Example 7)", blocks)
	}
}
