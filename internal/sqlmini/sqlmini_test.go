package sqlmini

import (
	"testing"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

func toyDB(t *testing.T) *relation.Database {
	t.Helper()
	prod := relation.NewRelation("Product", relation.MustSchema(
		relation.Column{Name: "PID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Category", Kind: relation.KindString},
		relation.Column{Name: "Price", Kind: relation.KindFloat, Mutable: true},
	))
	prod.MustInsert(relation.Int(1), relation.String("A"), relation.Float(100))
	prod.MustInsert(relation.Int(2), relation.String("A"), relation.Float(200))
	prod.MustInsert(relation.Int(3), relation.String("B"), relation.Float(300))
	rev := relation.NewRelation("Review", relation.MustSchema(
		relation.Column{Name: "PID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "RID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Rating", Kind: relation.KindInt, Mutable: true},
	))
	rev.MustInsert(relation.Int(1), relation.Int(1), relation.Int(4))
	rev.MustInsert(relation.Int(1), relation.Int(2), relation.Int(2))
	rev.MustInsert(relation.Int(2), relation.Int(3), relation.Int(5))
	db := relation.NewDatabase()
	db.MustAdd(prod)
	db.MustAdd(rev)
	return db
}

func runSelect(t *testing.T, db *relation.Database, src string) *relation.Relation {
	t.Helper()
	q, err := hyperql.Parse("USE (" + src + ") UPDATE(Price) = 1 OUTPUT COUNT(*)")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sel := q.(*hyperql.WhatIf).Use.Select
	rel, err := RunSelect(db, sel, "V")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rel
}

func TestSelectProjection(t *testing.T) {
	rel := runSelect(t, toyDB(t), `SELECT PID, Price FROM Product`)
	if rel.Len() != 3 || rel.Schema().Len() != 2 {
		t.Fatalf("projection = %v", rel)
	}
	// Key and mutability flags survive projection.
	if !rel.Schema().Col(0).Key || !rel.Schema().Col(1).Mutable {
		t.Error("schema flags lost")
	}
}

func TestSelectWhereFilter(t *testing.T) {
	rel := runSelect(t, toyDB(t), `SELECT PID, Price FROM Product WHERE Price >= 200`)
	if rel.Len() != 2 {
		t.Fatalf("filtered rows = %d", rel.Len())
	}
	rel = runSelect(t, toyDB(t), `SELECT PID FROM Product WHERE Category = 'A' AND Price < 150`)
	if rel.Len() != 1 || rel.Value(0, rel.Schema().MustIndex("PID")).AsInt() != 1 {
		t.Fatalf("conjunctive filter = %v", rel)
	}
}

func TestSelectHashJoin(t *testing.T) {
	rel := runSelect(t, toyDB(t), `SELECT T2.PID, T2.RID, T2.Rating, T1.Price FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID`)
	if rel.Len() != 3 {
		t.Fatalf("join rows = %d, want 3", rel.Len())
	}
	// Each review row carries its product's price.
	i := rel.LookupKey(relation.Tuple{relation.Int(2), relation.Int(3)})
	if i < 0 || rel.Value(i, rel.Schema().MustIndex("Price")).AsFloat() != 200 {
		t.Errorf("joined price wrong: row %d", i)
	}
}

func TestSelectJoinDuplicateKeyRejected(t *testing.T) {
	// Projecting only the product key of a 1-to-many join duplicates keys;
	// the evaluator must reject it rather than silently drop rows.
	db := toyDB(t)
	q, err := hyperql.Parse(`USE (SELECT T1.PID, T2.Rating FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID) UPDATE(Rating) = 1 OUTPUT COUNT(*)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSelect(db, q.(*hyperql.WhatIf).Use.Select, "V"); err == nil {
		t.Error("duplicate view keys should be rejected")
	}
}

func TestSelectGroupByAggregates(t *testing.T) {
	rel := runSelect(t, toyDB(t), `
SELECT T1.PID, T1.Price, AVG(T2.Rating) AS AvgR, SUM(T2.Rating) AS SumR, COUNT(*) AS N
FROM Product AS T1, Review AS T2
WHERE T1.PID = T2.PID
GROUP BY T1.PID, T1.Price`)
	if rel.Len() != 2 {
		t.Fatalf("groups = %d", rel.Len())
	}
	// Product 1: ratings 4, 2.
	i := rel.LookupKey(relation.Tuple{relation.Int(1)})
	if i < 0 {
		t.Fatal("product 1 group missing")
	}
	if got := rel.Value(i, rel.Schema().MustIndex("AvgR")).AsFloat(); got != 3 {
		t.Errorf("avg = %g", got)
	}
	if got := rel.Value(i, rel.Schema().MustIndex("SumR")).AsFloat(); got != 6 {
		t.Errorf("sum = %g", got)
	}
	if got := rel.Value(i, rel.Schema().MustIndex("N")).AsInt(); got != 2 {
		t.Errorf("count = %d", got)
	}
}

func TestSelectErrors(t *testing.T) {
	db := toyDB(t)
	bad := []string{
		`SELECT Nope FROM Product`,
		`SELECT PID FROM Nope`,
		`SELECT PID FROM Product, Product`,            // duplicate alias
		`SELECT AVG(Price) FROM Product`,              // aggregate without GROUP BY
		`SELECT PID, Price FROM Product GROUP BY PID`, // Price not grouped
	}
	for _, src := range bad {
		q, err := hyperql.Parse("USE (" + src + ") UPDATE(Price) = 1 OUTPUT COUNT(*)")
		if err != nil {
			continue // parse-level rejection also counts
		}
		if _, err := RunSelect(db, q.(*hyperql.WhatIf).Use.Select, "V"); err == nil {
			t.Errorf("RunSelect(%q) should fail", src)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := toyDB(t)
	q, err := hyperql.Parse(`USE (SELECT PID FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID) UPDATE(Price) = 1 OUTPUT COUNT(*)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSelect(db, q.(*hyperql.WhatIf).Use.Select, "V"); err == nil {
		t.Error("unqualified ambiguous column should fail")
	}
}

func evalStr(t *testing.T, src string, env Env) relation.Value {
	t.Helper()
	e, err := hyperql.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalArithmeticAndComparison(t *testing.T) {
	rel := relation.NewRelation("T", relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
	))
	rel.MustInsert(relation.Int(3), relation.Float(1.5), relation.String("x"))
	env := RowEnv{Rel: rel, Row: 0}

	cases := []struct {
		src  string
		want relation.Value
	}{
		{`a + 1`, relation.Int(4)},
		{`a * b`, relation.Float(4.5)},
		{`a - 5`, relation.Int(-2)},
		{`a / 2`, relation.Float(1.5)},
		{`-a`, relation.Int(-3)},
		{`a = 3`, relation.Bool(true)},
		{`a != 3`, relation.Bool(false)},
		{`b < 2`, relation.Bool(true)},
		{`s = 'x'`, relation.Bool(true)},
		{`a > 1 AND b < 1`, relation.Bool(false)},
		{`a > 1 OR b < 1`, relation.Bool(true)},
		{`NOT (a = 3)`, relation.Bool(false)},
		{`a IN (1, 3, 5)`, relation.Bool(true)},
		{`a NOT IN (1, 3, 5)`, relation.Bool(false)},
		{`1 <= a <= 5`, relation.Bool(true)},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, env); !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	rel := relation.NewRelation("T", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	rel.MustInsert(relation.Int(1))
	env := RowEnv{Rel: rel, Row: 0}
	// Unknown column on the right of a short-circuited AND must not error.
	e, err := hyperql.ParseExpr(`a = 2 AND nope = 1`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("short-circuit AND evaluated RHS: %v", err)
	}
	if v.AsBool() {
		t.Error("false AND x should be false")
	}
}

func TestEvalUnknownColumn(t *testing.T) {
	rel := relation.NewRelation("T", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	rel.MustInsert(relation.Int(1))
	env := RowEnv{Rel: rel, Row: 0}
	e, _ := hyperql.ParseExpr(`nope = 1`)
	if _, err := Eval(e, env); err == nil {
		t.Error("unknown column should error")
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	rel := relation.NewRelation("T", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	rel.MustInsert(relation.Null)
	env := RowEnv{Rel: rel, Row: 0}
	for _, src := range []string{`a = 0`, `a < 5`, `a != 0`} {
		if v := evalStr(t, src, env); v.AsBool() {
			t.Errorf("%s on NULL should be false", src)
		}
	}
}

// TestCompositeKeysDoNotCollide: a string's Value.Key() is "\x04"+s
// unescaped, so a key formed by concatenating Key()+"|" per column made
// ("x|\x04y", "z") and ("x", "y|\x04z") one GROUP BY group and one join key.
// Groups, join keys and a relation's own keys are tuples of codes now and
// cannot collide: the grouped select without SUM(v) has no column that
// tells its two rows apart but their (a, b), which the output relation's
// whole-tuple key must not take for a duplicate.
func TestCompositeKeysDoNotCollide(t *testing.T) {
	mk := func(name string) *relation.Relation {
		r := relation.NewRelation(name, relation.MustSchema(
			relation.Column{Name: "id", Kind: relation.KindInt, Key: true},
			relation.Column{Name: "a", Kind: relation.KindString},
			relation.Column{Name: "b", Kind: relation.KindString},
			relation.Column{Name: "v", Kind: relation.KindInt},
		))
		return r
	}
	l, r := mk("L"), mk("R")
	l.MustInsert(relation.Int(1), relation.String("x|\x04y"), relation.String("z"), relation.Int(1))
	l.MustInsert(relation.Int(2), relation.String("x"), relation.String("y|\x04z"), relation.Int(2))
	r.MustInsert(relation.Int(1), relation.String("x"), relation.String("y|\x04z"), relation.Int(5))
	db := relation.NewDatabase()
	db.MustAdd(l)
	db.MustAdd(r)

	for _, q := range []string{`SELECT a, b, SUM(v) AS s FROM L GROUP BY a, b`, `SELECT a, b FROM L GROUP BY a, b`} {
		if g := runSelect(t, db, q); g.Len() != 2 {
			t.Errorf("%s formed %d groups, want 2", q, g.Len())
		}
	}
	j := runSelect(t, db, `SELECT L.id, R.v FROM L, R WHERE L.a = R.a AND L.b = R.b`)
	if j.Len() != 1 || j.Value(0, j.Schema().MustIndex("id")).AsInt() != 2 {
		t.Errorf("two-conjunct join matched %d rows (want only L.id = 2):\n%v", j.Len(), j)
	}
}
