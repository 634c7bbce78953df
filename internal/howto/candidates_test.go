package howto

import (
	"context"
	"math"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

func parseHT(t *testing.T, src string) *hyperql.HowTo {
	t.Helper()
	q, err := hyperql.ParseHowTo(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return q
}

func TestCandidatesCategoricalDomain(t *testing.T) {
	g := dataset.GermanSyn(2000, 71)
	q := parseHT(t, `USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`)
	cands, err := Candidates(g.DB, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands["Status"]) != 4 {
		t.Errorf("Status candidates = %d, want 4 (domain values)", len(cands["Status"]))
	}
	for _, c := range cands["Status"] {
		if c.Form != hyperql.UpdateSet {
			t.Errorf("categorical candidate should be a set update: %v", c)
		}
	}
}

// TestHowToLooksViewUpOnce: a how-to's names and every HOWTOUPDATE
// attribute's base column come from one resolve, so enumerating the
// candidates of four attributes reads the view memo once.
func TestHowToLooksViewUpOnce(t *testing.T) {
	g := dataset.GermanSyn(500, 7)
	q := parseHT(t, `USE German HOWTOUPDATE Status, Savings, Housing, CreditAmount TOMAXIMIZE COUNT(Credit = 1)`)
	c := engine.NewCache()
	cands, err := Candidates(g.DB, q, Options{Engine: engine.Options{Cache: c}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("candidates for %d attributes, want 4", len(cands))
	}
	if st := c.Stats(); st.Hits+st.Misses != 1 {
		t.Errorf("view memo read %d times (%d hits, %d misses), want once", st.Hits+st.Misses, st.Hits, st.Misses)
	}
}

func TestCandidatesContinuousBuckets(t *testing.T) {
	g := dataset.GermanSynContinuous(2000, 73)
	q := parseHT(t, `USE German HOWTOUPDATE CreditAmount LIMIT 0 <= POST(CreditAmount) <= 5000 TOMAXIMIZE COUNT(Credit = 1)`)
	cands, err := Candidates(g.DB, q, Options{Buckets: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := cands["CreditAmount"]
	if len(got) != 6 {
		t.Fatalf("candidates = %d, want 6 buckets", len(got))
	}
	// Equi-width midpoints over [0, 5000].
	for i, c := range got {
		want := 5000.0 / 6 * (float64(i) + 0.5)
		if diff := c.Const.AsFloat() - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("midpoint %d = %g, want %g", i, c.Const.AsFloat(), want)
		}
	}
}

func TestCandidatesInListOverridesDomain(t *testing.T) {
	g := dataset.GermanSyn(2000, 79)
	q := parseHT(t, `USE German HOWTOUPDATE Status LIMIT POST(Status) IN (1, 3) TOMAXIMIZE COUNT(Credit = 1)`)
	cands, err := Candidates(g.DB, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands["Status"]) != 2 {
		t.Errorf("IN list candidates = %v", cands["Status"])
	}
}

func TestCandidatesL1FiltersByWhenSet(t *testing.T) {
	g := dataset.GermanSynContinuous(2000, 83)
	// Mean |5000 - amount| over all rows is > 1500, so a tight L1 bound
	// excludes high set-points.
	q := parseHT(t, `USE German HOWTOUPDATE CreditAmount LIMIT 0 <= POST(CreditAmount) <= 8000 AND L1(PRE(CreditAmount), POST(CreditAmount)) <= 800 TOMAXIMIZE COUNT(Credit = 1)`)
	cands, err := Candidates(g.DB, q, Options{Buckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	loose := parseHT(t, `USE German HOWTOUPDATE CreditAmount LIMIT 0 <= POST(CreditAmount) <= 8000 TOMAXIMIZE COUNT(Credit = 1)`)
	all, err := Candidates(g.DB, loose, Options{Buckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands["CreditAmount"]) >= len(all["CreditAmount"]) {
		t.Errorf("L1 bound should prune candidates: %d vs %d",
			len(cands["CreditAmount"]), len(all["CreditAmount"]))
	}
}

// TestCandidatesL1WithViewOnlyWhen pins what a WHEN that cannot be decided
// on the base relation means for the L1 limit: Rtng exists only in the USE
// view, so the limit is checked over every Product row — exactly as if WHEN
// were absent — for candidate feasibility and update costs alike. (Dropping
// the check instead would let all eight buckets through.)
func TestCandidatesL1WithViewOnlyWhen(t *testing.T) {
	db, _ := dataset.Toy()
	const use = `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, AVG(T2.Rating) AS Rtng
		FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID
		GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand) `
	const tail = `HOWTOUPDATE Price
		LIMIT 0 <= POST(Price) <= 1000 AND L1(PRE(Price), POST(Price)) <= 250
		TOMAXIMIZE AVG(POST(Rtng))`
	q := parseHT(t, use+`WHEN Rtng >= 3 `+tail)
	ws := whenSets{}
	got, srcs, err := candidates(context.Background(), db, q, Options{Buckets: 8}, ws)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Candidates(db, parseHT(t, use+tail), Options{Buckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Mean |v - Price| over the five products is within 250 only for the
	// bucket midpoint nearest the median price.
	if len(got["Price"]) != 1 || got["Price"][0].Const.AsFloat() != 562.5 {
		t.Fatalf("candidates = %v, want the single midpoint 562.5", got["Price"])
	}
	if len(want["Price"]) != 1 || want["Price"][0] != got["Price"][0] {
		t.Errorf("view-only WHEN candidates %v differ from the no-WHEN candidates %v", got["Price"], want["Price"])
	}
	costs, err := updateCosts(q, srcs["Price"], got["Price"], ws)
	if err != nil {
		t.Fatal(err)
	}
	if wantCost := (436.5 + 33.5 + 36.5 + 13.5 + 546.51) / 5; math.Abs(costs[0]-wantCost) > 1e-9 {
		t.Errorf("update cost = %v, want %v (mean over all rows)", costs[0], wantCost)
	}
}

func TestCandidatesErrors(t *testing.T) {
	g := dataset.GermanSyn(500, 89)
	if _, err := Candidates(g.DB, parseHT(t, `USE German HOWTOUPDATE Nope TOMAXIMIZE COUNT(Credit = 1)`), Options{}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := Candidates(g.DB, parseHT(t, `USE German HOWTOUPDATE ID TOMAXIMIZE COUNT(Credit = 1)`), Options{}); err == nil {
		t.Error("immutable attribute should fail")
	}
}

func TestCandidatesCapped(t *testing.T) {
	g := dataset.GermanSynContinuous(2000, 97)
	q := parseHT(t, `USE German HOWTOUPDATE CreditAmount LIMIT 0 <= POST(CreditAmount) <= 5000 TOMAXIMIZE COUNT(Credit = 1)`)
	cands, err := Candidates(g.DB, q, Options{Buckets: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands["CreditAmount"]) != 64 {
		t.Errorf("cap ignored: %d candidates", len(cands["CreditAmount"]))
	}
}

func TestChoiceString(t *testing.T) {
	scale := hyperql.UpdateSpec{Attr: "Price", Form: hyperql.UpdateScale, Const: relation.Float(1.1)}
	shift := hyperql.UpdateSpec{Attr: "Price", Form: hyperql.UpdateShift, Const: relation.Int(-50)}
	set := hyperql.UpdateSpec{Attr: "Color", Form: hyperql.UpdateSet, Const: relation.String("Red")}
	cases := []struct {
		c    Choice
		want string
	}{
		{Choice{Attr: "Price"}, "Price: no change"},
		{Choice{Attr: "Price", Update: &scale}, "Price: 1.1x"},
		{Choice{Attr: "Price", Update: &shift}, "Price: -50"},
		{Choice{Attr: "Color", Update: &set}, "Color: = Red"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("Choice.String() = %q, want %q", got, c.want)
		}
	}
}
