package relation

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "ID", Kind: KindInt, Key: true},
		Column{Name: "Name", Kind: KindString},
		Column{Name: "Score", Kind: KindFloat, Mutable: true},
	)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "A"}, Column{Name: "A"}); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewSchema(Column{Name: ""}); err == nil {
		t.Error("empty column name should fail")
	}
	if _, err := NewSchema(Column{Name: "K", Key: true, Mutable: true}); err == nil {
		t.Error("mutable key should fail")
	}
	s := testSchema(t)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if i, ok := s.Index("Score"); !ok || i != 2 {
		t.Errorf("Index(Score) = %d, %v", i, ok)
	}
	if s.Has("Nope") {
		t.Error("Has(Nope) should be false")
	}
	if got := s.KeyIndexes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("KeyIndexes = %v", got)
	}
	if !strings.Contains(s.String(), "ID int key") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestRelationInsertAndLookup(t *testing.T) {
	r := NewRelation("T", testSchema(t))
	if err := r.Insert(Tuple{Int(1), String("a"), Float(0.5)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(Tuple{Int(1), String("b"), Float(0.7)}); err == nil {
		t.Error("duplicate key should fail")
	}
	if err := r.Insert(Tuple{Int(2), String("b")}); err == nil {
		t.Error("wrong arity should fail")
	}
	// Coercion: int score coerces to float.
	if err := r.Insert(Tuple{Int(2), String("b"), Int(3)}); err != nil {
		t.Fatalf("coercible insert failed: %v", err)
	}
	if got := r.Value(1, 2); got.Kind() != KindFloat || got.AsFloat() != 3 {
		t.Errorf("coerced value = %v", got)
	}
	if err := r.Insert(Tuple{Int(3), String("c"), String("xyz")}); err == nil {
		t.Error("uncoercible insert should fail")
	}
	if i := r.LookupKey(Tuple{Int(2), Null, Null}); i != 1 {
		t.Errorf("LookupKey = %d", i)
	}
	if i := r.LookupKey(Tuple{Int(99), Null, Null}); i != -1 {
		t.Errorf("LookupKey missing = %d", i)
	}
}

// TestCompositeKeyEncodingIsInjective: two distinct keys of several string
// attributes must not encode alike, whatever bytes the strings hold — the
// second Insert used to fail as a duplicate of the first.
func TestCompositeKeyEncodingIsInjective(t *testing.T) {
	r := NewRelation("T", MustSchema(
		Column{Name: "A", Kind: KindString, Key: true},
		Column{Name: "B", Kind: KindString, Key: true},
		Column{Name: "V", Kind: KindInt},
	))
	rows := []Tuple{
		{String("x|\x04y"), String("z"), Int(1)},
		{String("x"), String("y|\x04z"), Int(2)},
	}
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			t.Fatalf("distinct composite keys collided: %v", err)
		}
	}
	for i, row := range rows {
		if got := r.LookupKey(row); got != i {
			t.Errorf("LookupKey(%v) = %d, want %d", row, got, i)
		}
	}
	if err := r.Insert(Tuple{String("x"), String("y|\x04z"), Int(3)}); err == nil {
		t.Error("a true duplicate composite key was accepted")
	}
}

func TestRelationColumnDomainMinMax(t *testing.T) {
	r := NewRelation("T", testSchema(t))
	for i, sc := range []float64{3, 1, 2, 1} {
		r.MustInsert(Int(int64(i)), String("x"), Float(sc))
	}
	dom := r.Domain("Score")
	if len(dom) != 3 || dom[0].AsFloat() != 1 || dom[2].AsFloat() != 3 {
		t.Errorf("Domain = %v", dom)
	}
	lo, hi, ok := r.MinMax("Score")
	if !ok || lo != 1 || hi != 3 {
		t.Errorf("MinMax = %v %v %v", lo, hi, ok)
	}
	if _, _, ok := NewRelation("E", testSchema(t)).MinMax("Score"); ok {
		t.Error("MinMax of empty relation should be !ok")
	}
}

// TestMinMaxSkipsNaN: a NaN is no bound of a range, wherever it sits among
// the rows. The first numeric value used to seed the range, so a NaN there
// answered [NaN, NaN].
func TestMinMaxSkipsNaN(t *testing.T) {
	nan := math.NaN()
	for _, scores := range [][]float64{{nan, 1, 5}, {1, nan, 5}, {5, 1, nan}} {
		r := NewRelation("T", testSchema(t))
		for i, sc := range scores {
			r.MustInsert(Int(int64(i)), String("x"), Float(sc))
		}
		if lo, hi, ok := r.MinMax("Score"); !ok || lo != 1 || hi != 5 {
			t.Errorf("MinMax over %v = %v %v %v, want 1 5 true", scores, lo, hi, ok)
		}
	}
	r := NewRelation("T", testSchema(t))
	r.MustInsert(Int(0), String("x"), Float(nan))
	if _, _, ok := r.MinMax("Score"); ok {
		t.Error("MinMax of an all-NaN column should be !ok")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := NewRelation("T", testSchema(t))
	r.MustInsert(Int(1), String("alpha"), Float(0.25))
	r.MustInsert(Int(2), String("beta, with comma"), Null)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("T", bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip len = %d", back.Len())
	}
	if got := back.Value(1, 1); got.AsString() != "beta, with comma" {
		t.Errorf("name = %q", got.AsString())
	}
	if got := back.Value(1, 2); !got.IsNull() {
		t.Errorf("null score = %v", got)
	}
	// Inferred kinds.
	if back.Schema().Col(0).Kind != KindInt || back.Schema().Col(2).Kind != KindFloat {
		t.Errorf("inferred schema = %v", back.Schema())
	}
	// With an explicit schema, headers must match.
	wrong := MustSchema(Column{Name: "X", Kind: KindInt})
	if _, err := ReadCSV("T", bytes.NewReader(buf.Bytes()), wrong); err == nil {
		t.Error("mismatched schema should fail")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	a := NewRelation("A", MustSchema(Column{Name: "ID", Kind: KindInt, Key: true}, Column{Name: "X", Kind: KindInt}))
	bRel := NewRelation("B", MustSchema(Column{Name: "ID", Kind: KindInt, Key: true}, Column{Name: "AID", Kind: KindInt}))
	db.MustAdd(a)
	db.MustAdd(bRel)
	if err := db.Add(NewRelation("A", a.Schema())); err == nil {
		t.Error("duplicate relation should fail")
	}
	if err := db.AddForeignKey(ForeignKey{Child: "B", ChildCol: "AID", Parent: "A", ParentCol: "ID"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddForeignKey(ForeignKey{Child: "B", ChildCol: "Nope", Parent: "A", ParentCol: "ID"}); err == nil {
		t.Error("bad FK column should fail")
	}
	if err := db.AddForeignKey(ForeignKey{Child: "Z", ChildCol: "AID", Parent: "A", ParentCol: "ID"}); err == nil {
		t.Error("bad FK relation should fail")
	}
	a.MustInsert(Int(1), Int(10))
	bRel.MustInsert(Int(1), Int(1))
	if db.TotalRows() != 2 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
}

func TestCompositeKey(t *testing.T) {
	r := NewRelation("T", MustSchema(
		Column{Name: "A", Kind: KindInt, Key: true},
		Column{Name: "B", Kind: KindInt, Key: true},
		Column{Name: "V", Kind: KindInt, Mutable: true},
	))
	r.MustInsert(Int(1), Int(1), Int(10))
	r.MustInsert(Int(1), Int(2), Int(20))
	if err := r.Insert(Tuple{Int(1), Int(1), Int(30)}); err == nil {
		t.Error("duplicate composite key should fail")
	}
	if r.Len() != 2 {
		t.Errorf("len = %d", r.Len())
	}
}
