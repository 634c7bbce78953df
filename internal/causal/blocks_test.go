package causal

import (
	"strings"
	"testing"

	"hyper/internal/relation"
)

// twoTableDB builds Product/Review with an FK, three categories.
func twoTableDB(t *testing.T) *relation.Database {
	t.Helper()
	prod := relation.NewRelation("Product", relation.MustSchema(
		relation.Column{Name: "PID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Category", Kind: relation.KindString},
		relation.Column{Name: "Price", Kind: relation.KindFloat, Mutable: true},
	))
	prod.MustInsert(relation.Int(1), relation.String("A"), relation.Float(10))
	prod.MustInsert(relation.Int(2), relation.String("A"), relation.Float(20))
	prod.MustInsert(relation.Int(3), relation.String("B"), relation.Float(30))
	prod.MustInsert(relation.Int(4), relation.String("C"), relation.Float(40))
	rev := relation.NewRelation("Review", relation.MustSchema(
		relation.Column{Name: "PID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "RID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Rating", Kind: relation.KindInt, Mutable: true},
	))
	rev.MustInsert(relation.Int(1), relation.Int(1), relation.Int(5))
	rev.MustInsert(relation.Int(3), relation.Int(2), relation.Int(4))
	rev.MustInsert(relation.Int(3), relation.Int(3), relation.Int(3))
	db := relation.NewDatabase()
	db.MustAdd(prod)
	db.MustAdd(rev)
	if err := db.AddForeignKey(relation.ForeignKey{Child: "Review", ChildCol: "PID", Parent: "Product", ParentCol: "PID"}); err != nil {
		t.Fatal(err)
	}
	return db
}

func productModel() *Model {
	m := NewModel()
	m.AddEdge("Product.Price", "Review.Rating")
	return m
}

// blocksOf runs RowBlocks and groups its ids into blocks: blocks[b][rel]
// lists block b's rows of rel in ascending order. It fails the test unless
// every relation has one id per row, every id lies in [0, n), every block
// holds a tuple and the ids are numbered by each block's smallest (relation,
// row) member in db.Names() order.
func blocksOf(t *testing.T, db *relation.Database, m *Model) []map[string][]int {
	t.Helper()
	ids, n, err := RowBlocks(db, m)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]map[string][]int, n)
	next := 0
	for _, rel := range db.Names() {
		if len(ids[rel]) != db.Relation(rel).Len() {
			t.Fatalf("%s: %d block ids for %d rows", rel, len(ids[rel]), db.Relation(rel).Len())
		}
		for row, b := range ids[rel] {
			if b < 0 || int(b) >= n {
				t.Fatalf("%s row %d: block %d outside [0, %d)", rel, row, b, n)
			}
			if blocks[b] == nil {
				if int(b) != next {
					t.Fatalf("%s row %d opens block %d, want %d (smallest-member order)", rel, row, b, next)
				}
				next++
				blocks[b] = map[string][]int{}
			}
			blocks[b][rel] = append(blocks[b][rel], row)
		}
	}
	if next != n {
		t.Fatalf("%d of %d blocks hold a tuple", next, n)
	}
	return blocks
}

func TestDecomposeFKOnly(t *testing.T) {
	db := twoTableDB(t)
	blocks := blocksOf(t, db, productModel())
	// Products 1..4 each form their own block; reviews join their product:
	// blocks {p1,r1}, {p2}, {p3,r2,r3}, {p4}.
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(blocks))
	}
	sizes := map[int]int{}
	for _, b := range blocks {
		n := 0
		for _, rows := range b {
			n += len(rows)
		}
		sizes[n]++
	}
	if sizes[1] != 2 || sizes[2] != 1 || sizes[3] != 1 {
		t.Errorf("block size histogram = %v", sizes)
	}
}

// TestDecomposeLinkFree: with neither a foreign key nor a cross edge no
// tuples link, and Decompose, which then makes no union-find, must equal the
// fresh decomposition it replaced (refDecompose), and so must Extend from
// the version before rows were appended to the last relation: one relation,
// and several with an empty one between them, under no model and under one
// whose edge stays inside a tuple.
func TestDecomposeLinkFree(t *testing.T) {
	rel := func(name string, rows int) *relation.Relation {
		r := relation.NewRelation(name, relation.MustSchema(
			relation.Column{Name: "K", Kind: relation.KindInt, Key: true},
			relation.Column{Name: "V", Kind: relation.KindInt},
		))
		for i := range rows {
			r.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%2)))
		}
		return r
	}
	one := relation.NewDatabase()
	one.MustAdd(rel("A", 5))
	several := relation.NewDatabase()
	several.MustAdd(rel("A", 3))
	several.MustAdd(rel("Empty", 0))
	several.MustAdd(rel("B", 4))
	inTuple := NewModel()
	inTuple.AddEdge("A.K", "A.V")
	for _, tc := range []struct {
		name string
		db   *relation.Database
		m    *Model
	}{{"one relation", one, nil}, {"several relations", several, nil}, {"in-tuple edge", several, inTuple}} {
		names := tc.db.Names()
		next, err := tc.db.Extend(map[string][]relation.Tuple{names[len(names)-1]: {
			{relation.Int(100), relation.Int(0)}, {relation.Int(101), relation.Int(1)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range []*relation.Database{tc.db, next} {
			got, err := Decompose(db, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refDecompose(db, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameBlocks(got, want); diff != "" {
				t.Fatalf("%s, %d rows: fresh %s", tc.name, db.TotalRows(), diff)
			}
		}
		from, _ := Decompose(tc.db, tc.m)
		got, ok, err := from.Extend(next, tc.m, next.Ancestors()[0])
		if err != nil || !ok {
			t.Fatalf("%s: Extend refused (%v)", tc.name, err)
		}
		want, _ := refDecompose(next, tc.m)
		if diff := sameBlocks(got, want); diff != "" {
			t.Fatalf("%s: derived %s", tc.name, diff)
		}
	}
}

func TestDecomposeWithCrossEdges(t *testing.T) {
	db := twoTableDB(t)
	m := productModel()
	m.AddCross(CrossEdge{FromRel: "Product", FromAttr: "Price", ToRel: "Product", ToAttr: "Price", GroupBy: "Product.Category"})
	blocks := blocksOf(t, db, m)
	// Category A merges products 1 and 2: blocks {p1,p2,r1}, {p3,r2,r3}, {p4}.
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(blocks))
	}
}

func TestDecomposeIsPartition(t *testing.T) {
	db := twoTableDB(t)
	m := productModel()
	m.AddCross(CrossEdge{FromRel: "Product", FromAttr: "Price", ToRel: "Product", ToAttr: "Price", GroupBy: "Product.Category"})
	seen := map[string]bool{}
	total := 0
	for _, b := range blocksOf(t, db, m) {
		for rel, rows := range b {
			for _, r := range rows {
				key := rel + ":" + string(rune('0'+r))
				if seen[key] {
					t.Fatalf("tuple %s appears in two blocks", key)
				}
				seen[key] = true
				total++
			}
		}
	}
	if total != db.TotalRows() {
		t.Errorf("partition covers %d of %d tuples", total, db.TotalRows())
	}
}

func TestGroundGraphAndIndependence(t *testing.T) {
	db := twoTableDB(t)
	m := productModel()
	m.AddCross(CrossEdge{FromRel: "Product", FromAttr: "Price", ToRel: "Product", ToAttr: "Price", GroupBy: "Product.Category"})
	g, err := GroundGraph(db, m)
	if err != nil {
		t.Fatal(err)
	}
	// Product 1's price must reach review 0's rating (FK grounding).
	if !connectedTo(g, "Product[0].Price", "Review[0].Rating") {
		t.Error("p1 price should ground-connect to its review")
	}
	// Cross edge: product 0 and 1 share category A.
	if !connectedTo(g, "Product[0].Price", "Product[1].Price") {
		t.Error("same-category prices should connect")
	}
	// Products 0 (cat A) and 3 (cat C) are independent.
	if !Independent(g, db, "Product", 0, "Product", 3) {
		t.Error("p1 and p4 should be independent")
	}
	if Independent(g, db, "Product", 2, "Review", 1) {
		t.Error("p3 is not independent of its own review")
	}
}

// TestBlocksMatchGroundGraph cross-validates the linear-time union-find
// decomposition against pairwise independence on the materialized ground
// graph (Proposition 7's premise: same block iff dependent).
func TestBlocksMatchGroundGraph(t *testing.T) {
	db := twoTableDB(t)
	m := productModel()
	m.AddCross(CrossEdge{FromRel: "Product", FromAttr: "Price", ToRel: "Product", ToAttr: "Price", GroupBy: "Product.Category"})
	blocks := blocksOf(t, db, m)
	g, err := GroundGraph(db, m)
	if err != nil {
		t.Fatal(err)
	}
	blockOf := map[string]int{}
	for bi, b := range blocks {
		for rel, rows := range b {
			for _, r := range rows {
				blockOf[keyOf(rel, r)] = bi
			}
		}
	}
	type tup struct {
		rel string
		row int
	}
	var all []tup
	for _, rn := range db.Names() {
		for i := 0; i < db.Relation(rn).Len(); i++ {
			all = append(all, tup{rn, i})
		}
	}
	for _, a := range all {
		for _, b := range all {
			sameBlock := blockOf[keyOf(a.rel, a.row)] == blockOf[keyOf(b.rel, b.row)]
			indep := Independent(g, db, a.rel, a.row, b.rel, b.row)
			if a == b {
				continue
			}
			if sameBlock && indep && a.rel == b.rel && a.rel == "Product" {
				// Same block but independent is allowed only via shared FK
				// grouping; for product pairs it indicates a bug.
				t.Errorf("%v and %v share a block but are ground-independent", a, b)
			}
			if !sameBlock && !indep {
				t.Errorf("%v and %v are dependent but in different blocks", a, b)
			}
		}
	}
}

func keyOf(rel string, row int) string { return rel + "#" + string(rune('0'+row)) }

func TestModelValidate(t *testing.T) {
	db := twoTableDB(t)
	m := productModel()
	if err := m.Validate(db); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := NewModel()
	bad.AddEdge("Nope.X", "Product.Price")
	if err := bad.Validate(db); err == nil {
		t.Error("unknown relation should fail validation")
	}
	bad2 := NewModel()
	bad2.AddEdge("Product.Nope", "Product.Price")
	if err := bad2.Validate(db); err == nil {
		t.Error("unknown attribute should fail validation")
	}
	cyc := NewModel()
	cyc.AddEdge("Product.Price", "Review.Rating")
	cyc.AddEdge("Review.Rating", "Product.Price")
	if err := cyc.Validate(db); err == nil {
		t.Error("cyclic model should fail validation")
	}
}

func TestParseModel(t *testing.T) {
	src := `
# comment
Product.Price -> Review.Rating
CROSS Product.Price -> Product.Price GROUP Product.Category
FK Review.PID -> Product.PID
`
	m, fks, err := ParseModel(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Attr.Edges()) != 1 || len(m.Cross) != 1 || len(fks) != 1 {
		t.Errorf("parsed %d edges %d cross %d fks", len(m.Attr.Edges()), len(m.Cross), len(fks))
	}
	if fks[0].Child != "Review" || fks[0].ParentCol != "PID" {
		t.Errorf("fk = %+v", fks[0])
	}
	for _, bad := range []string{
		"A ->", "CROSS A -> B", "FK A -> B.C", "A -> B -> C",
	} {
		if _, _, err := ParseModel(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseModel(%q) should fail", bad)
		}
	}
	// Cycles rejected.
	if _, _, err := ParseModel(strings.NewReader("R.A -> R.B\nR.B -> R.A\n")); err == nil {
		t.Error("cyclic model text should fail")
	}
}

func TestQualify(t *testing.T) {
	if Qualify("R", "A") != "R.A" {
		t.Error("Qualify")
	}
	r, a := SplitQualified("R.A")
	if r != "R" || a != "A" {
		t.Error("SplitQualified")
	}
	r, a = SplitQualified("bare")
	if r != "" || a != "bare" {
		t.Error("SplitQualified bare")
	}
}
