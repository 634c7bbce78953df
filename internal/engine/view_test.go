package engine

import (
	"context"
	"fmt"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// TestViewBlockIDsCompositeKey: under a USE (SELECT …) view, each row's
// block is that of the base tuple it was selected from, also when the key has
// several columns whose strings hold the bytes a naive concatenation would
// separate them with, and also when the view does not project the whole key.
// The oracle finds each view row's base tuple by brute force, matching every
// projected column.
func TestViewBlockIDsCompositeKey(t *testing.T) {
	item := relation.NewRelation("Item", relation.MustSchema(
		relation.Column{Name: "Store", Kind: relation.KindString, Key: true},
		relation.Column{Name: "SKU", Kind: relation.KindString, Key: true},
		relation.Column{Name: "Cat", Kind: relation.KindString},
		relation.Column{Name: "Price", Kind: relation.KindFloat, Mutable: true},
		relation.Column{Name: "Sold", Kind: relation.KindInt, Mutable: true},
	))
	for i, r := range []struct{ store, sku, cat string }{
		{"x|\x04y", "z", "a"},
		{"n", "1", "b"},
		{"x", "y|\x04z", "c"},
		{"o", "2", "a"},
		{"m", "1", "c"},
	} {
		item.MustInsert(relation.String(r.store), relation.String(r.sku), relation.String(r.cat),
			relation.Float(float64(10+i)), relation.Int(int64(i)))
	}
	db := relation.NewDatabase()
	db.MustAdd(item)
	model := causal.NewModel()
	model.AddEdge("Item.Price", "Item.Sold")
	// Tuples of one category share a block, so block ids are not row indexes.
	model.AddCross(causal.CrossEdge{FromRel: "Item", FromAttr: "Price",
		ToRel: "Item", ToAttr: "Price", GroupBy: "Item.Cat"})
	byRel, nBlocks, err := causal.RowBlocks(db, model)
	if err != nil {
		t.Fatal(err)
	}
	if nBlocks != 3 {
		t.Fatalf("%d blocks, want one per category", nBlocks)
	}

	for _, sel := range []string{
		`SELECT T.Store, T.SKU, T.Cat, T.Price, T.Sold FROM Item AS T WHERE T.Sold >= 1`,
		`SELECT T.Store, T.Cat, T.Price, T.Sold FROM Item AS T WHERE T.Sold <> 2`, // no SKU
	} {
		q, err := hyperql.ParseWhatIf(`USE (` + sel + `) UPDATE(Price) = 1.1 * PRE(Price) OUTPUT AVG(POST(Sold))`)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prepareEvaluation(context.Background(), db, model, q, Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		v := p.v.Rel
		if v == item || v.Len() != item.Len()-1 {
			t.Fatalf("%s: want a materialized view of %d rows, got %d (identity=%v)", sel, item.Len()-1, v.Len(), v == item)
		}
		for i := range v.Len() {
			base := -1
			for j := range item.Len() {
				match := true
				for c, col := range v.Schema().Columns() {
					match = match && v.Value(i, c).Equal(item.Value(j, item.Schema().MustIndex(col.Name)))
				}
				if match {
					base = j
				}
			}
			if base < 0 || p.blockAt(i) != int(byRel["Item"][base]) {
				t.Errorf("%s: view row %d %v: block %d, want that of base row %d in %v", sel, i, v.Row(i), p.blockAt(i), base, byRel["Item"])
			}
		}
	}
}

// TestWhatIfValidatesEveryUpdate: the memoized view is the USE clause's alone;
// every UPDATE of a query must pass the same checks against it — a mutable
// column of the one updated relation — however the attributes are ordered.
func TestWhatIfValidatesEveryUpdate(t *testing.T) {
	g := dataset.GermanSyn(2000, 7)
	a := dataset.AmazonSyn(300, 6, 7)
	for _, tc := range []struct {
		name    string
		db      *relation.Database
		model   *causal.Model
		query   string
		wantErr string // "" = the query answers
	}{
		{"immutable second", g.DB, g.Model,
			`USE German UPDATE(Status) = 3 AND UPDATE(Age) = 1 OUTPUT COUNT(Credit = 1)`,
			"engine: update attribute German.Age is immutable"},
		{"immutable first", g.DB, g.Model,
			`USE German UPDATE(Age) = 1 AND UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			"engine: update attribute German.Age is immutable"},
		{"two mutable attributes", g.DB, g.Model,
			`USE German UPDATE(Status) = 3 AND UPDATE(Savings) = 1 OUTPUT COUNT(Credit = 1)`, ""},
		{"aggregate of another relation", a.DB, a.Model,
			amazonUse + ` UPDATE(Price) = 1.1 * PRE(Price) AND UPDATE(Rtng) = 5 OUTPUT COUNT(POST(Rtng) >= 4)`,
			"engine: update attribute Review.Rating is outside the updated relation Product"},
		{"aggregate alone", a.DB, a.Model,
			amazonUse + ` UPDATE(Rtng) = 5 OUTPUT COUNT(POST(Rtng) >= 4)`,
			`engine: update attribute "Rtng" is an aggregate of Review.Rating, not a plain view column`},
		{"two aliases of one relation", a.DB, a.Model,
			`USE (SELECT T1.PID, T1.Price, T2.PID AS PID2, T2.Price AS Price2 FROM Product AS T1, Product AS T2
				WHERE T1.Category = T2.Category) UPDATE(Price) = 500 AND UPDATE(Price2) = 600 OUTPUT AVG(POST(Price))`,
			`engine: update attribute "Price2" reads a second FROM entry of Product; every update must read one`},
		{"not a view column", g.DB, g.Model,
			`USE German UPDATE(Status) = 3 AND UPDATE(Nope) = 1 OUTPUT COUNT(Credit = 1)`,
			`offset 41: unknown column "Nope" in German`},
	} {
		q, err := hyperql.ParseWhatIf(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The second run finds the view in the cache: validation is per query.
		opts := Options{Seed: 7, Cache: NewCache()}
		for run := 0; run < 2; run++ {
			_, err = Evaluate(tc.db, tc.model, q, opts)
			if got := fmt.Sprint(err); (tc.wantErr == "" && err != nil) || (tc.wantErr != "" && got != tc.wantErr) {
				t.Errorf("%s, run %d: err = %v, want %q", tc.name, run, err, tc.wantErr)
			}
		}
	}
}

// TestViewSourcesAliased: a view column is its source whatever the select
// names it. Aliasing R's key, the ψ group column or the update column
// answers exactly as the unaliased Figure-1 query does, in the same blocks.
func TestViewSourcesAliased(t *testing.T) {
	a := dataset.AmazonSyn(200, 4, 7)
	const use = `USE (SELECT %s, %s, %s, T1.Brand, T1.Color, T1.Quality, AVG(T2.Rating) AS Rtng
		FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID
		GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality)
		WHEN %s = 'Laptop' UPDATE(%s) = 0.9 * PRE(%s) OUTPUT AVG(POST(Rtng))`
	query := func(pid, cat, price string) *hyperql.WhatIf {
		catName, priceName := "Category", "Price"
		if cat != "" {
			catName = cat
			cat = " AS " + cat
		}
		if price != "" {
			priceName = price
			price = " AS " + price
		}
		if pid != "" {
			pid = " AS " + pid
		}
		q, err := hyperql.ParseWhatIf(fmt.Sprintf(use, "T1.PID"+pid, "T1.Category"+cat, "T1.Price"+price,
			catName, priceName, priceName))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, mode := range []Mode{ModeFull, ModeNB} {
		want, err := Evaluate(a.DB, a.Model, query("", "", ""), Options{Mode: mode, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ name, pid, cat, price string }{
			{"aliased key", "Id", "", ""},
			{"aliased group column", "", "Cat", ""},
			{"aliased update column", "", "", "P"},
		} {
			got, err := Evaluate(a.DB, a.Model, query(tc.pid, tc.cat, tc.price), Options{Mode: mode, Seed: 7})
			if err != nil {
				t.Errorf("mode %v, %s: %v", mode, tc.name, err)
				continue
			}
			if !bitsEqual(got.Value, want.Value) || got.Blocks != want.Blocks {
				t.Errorf("mode %v, %s: %v in %d blocks, unaliased %v in %d", mode, tc.name, got.Value, got.Blocks, want.Value, want.Blocks)
			}
		}
	}
}
