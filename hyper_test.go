package hyper

import (
	"context"
	"strings"
	"testing"

	"hyper/internal/dataset"
)

// figure4Query is the exact what-if query of Figure 4 in the paper.
const figure4Query = `
USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand,
            AVG(Sentiment) AS Senti, AVG(T2.Rating) AS Rtng
     FROM Product AS T1, Review AS T2
     WHERE T1.PID = T2.PID
     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand)
WHEN Brand = 'Asus'
UPDATE(Price) = 1.1 * PRE(Price)
OUTPUT AVG(POST(Rtng))
FOR PRE(Category) = 'Laptop' AND PRE(Brand) = 'Asus' AND POST(Senti) > 0.5`

// figure5Query is the how-to query of Figure 5 (with the USE clause of
// Figure 4 inlined).
const figure5Query = `
USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color,
            AVG(Sentiment) AS Senti, AVG(T2.Rating) AS Rtng
     FROM Product AS T1, Review AS T2
     WHERE T1.PID = T2.PID
     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color)
WHEN Brand = 'Asus' AND Category = 'Laptop'
HOWTOUPDATE Price, Color
LIMIT 500 <= POST(Price) <= 800 AND L1(PRE(Price), POST(Price)) <= 400
TOMAXIMIZE AVG(POST(Rtng))
FOR (PRE(Category) = 'Laptop' OR PRE(Category) = 'DSLR Camera') AND Brand = 'Asus'`

func TestFigure4QueryOnToyDatabase(t *testing.T) {
	db, model := dataset.Toy()
	s := NewSession(db, model)
	if err := s.Validate(); err != nil {
		t.Fatalf("model validation: %v", err)
	}
	res, err := s.WhatIf(figure4Query)
	if err != nil {
		t.Fatalf("what-if: %v", err)
	}
	if res.ViewRows != 4 {
		// One row per product with at least one review (the eBook has none).
		t.Errorf("relevant view should have one row per reviewed product, got %d", res.ViewRows)
	}
	if res.UpdatedRows != 1 {
		t.Errorf("WHEN Brand='Asus' selects 1 product, got %d", res.UpdatedRows)
	}
	if res.Value < 0 || res.Value > 5 {
		t.Errorf("average rating %.3f out of range [0, 5]", res.Value)
	}
	if res.Blocks < 2 {
		t.Errorf("toy database should decompose into >= 2 blocks (laptops+camera, books), got %d", res.Blocks)
	}
}

func TestFigure5QueryOnToyDatabase(t *testing.T) {
	db, model := dataset.Toy()
	s := NewSession(db, model)
	res, err := s.HowTo(figure5Query)
	if err != nil {
		t.Fatalf("how-to: %v", err)
	}
	if len(res.Choices) != 2 {
		t.Fatalf("expected choices for Price and Color, got %v", res.Choices)
	}
	for _, c := range res.Choices {
		if c.Attr == "Price" && c.Update != nil {
			v := c.Update.Const.AsFloat()
			if v < 500 || v > 800 {
				t.Errorf("chosen price %g violates LIMIT [500, 800]", v)
			}
		}
	}
	if res.Objective < res.Base-1e-9 {
		t.Errorf("objective %.3f must not be worse than base %.3f", res.Objective, res.Base)
	}
}

func TestQueryDispatch(t *testing.T) {
	db, model := dataset.Toy()
	s := NewSession(db, model)
	r1, err := s.Run(context.Background(), mustParse[Query](t, `USE Product UPDATE(Price) = 500 OUTPUT AVG(POST(Quality))`), nil)
	if err != nil {
		t.Fatalf("what-if dispatch: %v", err)
	}
	if _, ok := r1.(*WhatIfResult); !ok {
		t.Errorf("expected *WhatIfResult, got %T", r1)
	}
	r2, err := s.Run(context.Background(), mustParse[Query](t, `USE Product HOWTOUPDATE Price LIMIT 100 <= POST(Price) <= 1000 TOMAXIMIZE AVG(POST(Quality))`), nil)
	if err != nil {
		t.Fatalf("how-to dispatch: %v", err)
	}
	if _, ok := r2.(*HowToResult); !ok {
		t.Errorf("expected *HowToResult, got %T", r2)
	}
}

// mustParse parses src as a query of kind Q or fails the test.
func mustParse[Q Query](t testing.TB, src string) Q {
	t.Helper()
	q, err := Parse(src)
	k, ok := q.(Q)
	if err != nil || !ok {
		t.Fatalf("parse %q as %T: %v", src, k, err)
	}
	return k
}

func TestParseRoundTrip(t *testing.T) {
	canon := mustParse[Query](t, figure4Query).String()
	for _, want := range []string{"USE (SELECT", "WHEN", "UPDATE(Price)", "OUTPUT AVG", "FOR"} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical form missing %q: %s", want, canon)
		}
	}
	// The canonical form must itself parse to the same canonical form.
	if again := mustParse[Query](t, canon).String(); again != canon {
		t.Errorf("canonical form is not a fixed point:\n%s\n%s", canon, again)
	}
}

func TestSessionModes(t *testing.T) {
	g := dataset.GermanSyn(2000, 5)
	for _, mode := range []Mode{ModeFull, ModeNB, ModeIndep} {
		s := NewSession(g.DB, g.Model)
		s.SetOptions(Options{Mode: mode, Seed: 1})
		res, err := s.WhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if res.Mode != mode {
			t.Errorf("result mode = %s, want %s", res.Mode, mode)
		}
		if res.Value <= 0 || res.Value > float64(g.Rel().Len()) {
			t.Errorf("mode %s: value %.1f out of range", mode, res.Value)
		}
	}
}
