package engine

import (
	"fmt"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// TestViewBlockIDsCompositeKey: under a USE (SELECT …) view, rows find their
// base tuple — and so their block — through the update relation's own key
// index, also when the key has several columns whose strings hold the bytes a
// naive concatenation would separate them with.
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

	q, err := hyperql.ParseWhatIf(`USE (SELECT T.Store, T.SKU, T.Cat, T.Price, T.Sold FROM Item AS T)
		UPDATE(Price) = 1.1 * PRE(Price) OUTPUT AVG(POST(Sold))`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := buildView(db, q.Use)
	if err != nil {
		t.Fatal(err)
	}
	if v.rel == item || v.rel.Len() != item.Len() {
		t.Fatalf("want a materialized view of %d rows, got %d (identity=%v)", item.Len(), v.rel.Len(), v.rel == item)
	}
	byRel, nBlocks, err := causal.RowBlocks(db, model)
	if err != nil {
		t.Fatal(err)
	}
	if nBlocks != 3 {
		t.Fatalf("%d blocks, want one per category", nBlocks)
	}
	ids, err := v.blockIDs(item, byRel["Item"])
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.rel.Len() {
		row := v.rel.Row(i)
		base := -1
		for j := range item.Len() {
			b := item.Row(j)
			if b[0].Equal(row[0]) && b[1].Equal(row[1]) {
				base = j
			}
		}
		if base < 0 || ids[i] != byRel["Item"][base] {
			t.Errorf("view row %d %v: block %d, want that of base row %d in %v", i, row[:2], ids[i], base, byRel["Item"])
		}
	}

	// A view without the update relation's key columns cannot be mapped back.
	q2, err := hyperql.ParseWhatIf(`USE (SELECT T.Store, T.Price, T.Sold FROM Item AS T)
		UPDATE(Price) = 1.1 * PRE(Price) OUTPUT AVG(POST(Sold))`)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := buildView(db, q2.Use)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.blockIDs(item, byRel["Item"]); err == nil {
		t.Error("a view missing key column SKU mapped its rows to blocks")
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
		{"not a view column", g.DB, g.Model,
			`USE German UPDATE(Status) = 3 AND UPDATE(Nope) = 1 OUTPUT COUNT(Credit = 1)`,
			`engine: update attribute "Nope" is not a column of the relevant view`},
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
