package sqlmini

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
	"hyper/internal/stats"
)

// parityDB builds a small random database whose joins match often: NULL and
// repeated join keys, an int key column (A.k) against a float one (B.k, whole
// and fractional values), string keys, NULLs under the aggregates, a table
// with a composite key (C) and one whose twelve columns are too wide to
// radix-pack once it has 82 rows or more (W).
func parityDB(seed int64, nA, nB, nC, nW int) *relation.Database {
	rng := stats.NewRNG(seed)
	strs := []string{"x", "y", "z"}
	intOrNull := func(n int) relation.Value {
		if rng.Intn(5) == 0 {
			return relation.Null
		}
		return relation.Int(int64(rng.Intn(n)))
	}
	a := relation.NewRelation("A", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "v", Kind: relation.KindInt, Mutable: true},
		relation.Column{Name: "w", Kind: relation.KindFloat, Mutable: true},
	))
	for i := 0; i < nA; i++ {
		a.MustInsert(relation.Int(int64(i)), intOrNull(5), relation.String(strs[rng.Intn(3)]),
			intOrNull(10), relation.Float(rng.Float64()*10))
	}
	b := relation.NewRelation("B", relation.MustSchema(
		relation.Column{Name: "bid", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "k", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "bv", Kind: relation.KindInt, Mutable: true},
	))
	for i := 0; i < nB; i++ {
		k := relation.Null
		switch rng.Intn(6) {
		case 0:
		case 1:
			k = relation.Float(2.5)
		default:
			k = relation.Float(float64(rng.Intn(6)))
		}
		b.MustInsert(relation.Int(int64(i)), k, relation.String(strs[rng.Intn(3)]), intOrNull(10))
	}
	c := relation.NewRelation("C", relation.MustSchema(
		relation.Column{Name: "k1", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "k2", Kind: relation.KindString, Key: true},
		relation.Column{Name: "cv", Kind: relation.KindFloat, Mutable: true},
	))
	for i := 0; i < nC; i++ {
		c.MustInsert(relation.Int(int64(i/3)), relation.String(strs[i%3]), relation.Float(rng.NormFloat64()))
	}
	wcols := []relation.Column{{Name: "wid", Kind: relation.KindInt, Key: true}}
	for j := 0; j < 12; j++ {
		wcols = append(wcols, relation.Column{Name: fmt.Sprintf("w%d", j), Kind: relation.KindInt})
	}
	w := relation.NewRelation("W", relation.MustSchema(wcols...))
	for i := 0; i < nW; i++ {
		row := relation.Tuple{relation.Int(int64(i))}
		for j := 0; j < 12; j++ {
			row = append(row, relation.Int(int64(i/2+j)))
		}
		w.MustInsert(row...)
	}
	db := relation.NewDatabase()
	db.MustAdd(a)
	db.MustAdd(b)
	db.MustAdd(c)
	db.MustAdd(w)
	return db
}

var paritySelects = []string{
	// No GROUP BY: joins on NULL keys, Int 3 against Float 3.0, string keys.
	`SELECT A.id, B.bid FROM A, B WHERE A.k = B.k`,
	`SELECT A.id, B.bid, A.w FROM A, B WHERE B.s = A.s`,
	`SELECT id, w FROM A`,
	// Three tables; two conjuncts between one pair; conjuncts to two tables.
	`SELECT A.id, B.bid, C.k1, C.k2 FROM A, B, C WHERE A.k = B.k AND B.s = C.k2`,
	`SELECT A.id, B.bid FROM A, B WHERE A.k = B.k AND A.s = B.s`,
	`SELECT A.id, B.bid, C.k1, C.k2 FROM A, B, C WHERE C.k1 = A.k AND C.k2 = B.s`,
	// A join-less pair (cross product), alone and ahead of a join.
	`SELECT A.id, C.k1, C.k2 FROM A, C`,
	`SELECT A.id, C.k1, C.k2, B.bid FROM A, C, B WHERE A.k = B.k`,
	// Residual filters: over both tables, one that errors on the first row
	// that survives the join, one whose error an OR short-circuits for most
	// rows, and a filter on a single table.
	`SELECT A.id, B.bid FROM A, B WHERE A.k = B.k AND A.v + B.bv > 6`,
	`SELECT A.id, B.bid FROM A, B WHERE A.k = B.k AND Nope = 1`,
	`SELECT A.id, B.bid FROM A, B WHERE A.k = B.k AND (A.v < 8 OR Nope = 1)`,
	`SELECT id FROM A WHERE v >= 3 AND w < 7`,
	// Aggregates: COUNT(*), SUM and AVG over NULLs, over a left-table column.
	`SELECT A.s, COUNT(*) AS n, SUM(B.bv) AS sb, AVG(B.bv) AS ab, SUM(A.w) AS sw, AVG(A.v) AS av FROM A, B WHERE A.k = B.k GROUP BY A.s`,
	`SELECT k, COUNT(*) AS n, AVG(v) AS av FROM A GROUP BY k`,
	// GROUP BY covering a table's key (single and composite) and not.
	`SELECT A.id, A.s, AVG(B.bv) AS ab, COUNT(*) AS n FROM A, B WHERE A.k = B.k GROUP BY A.id, A.s`,
	`SELECT C.k1, C.k2, SUM(A.w) AS sw, COUNT(*) AS n FROM A, C WHERE C.k1 = A.k GROUP BY C.k1, C.k2`,
	`SELECT C.k1, SUM(C.cv) AS sc, COUNT(*) AS n FROM C GROUP BY C.k1`,
	`SELECT A.id, C.k1, COUNT(*) AS n FROM A, C WHERE C.k1 = A.k GROUP BY A.id, C.k1`,
	`SELECT C.k1, C.k2, A.s, SUM(A.w) AS sw FROM A, C WHERE C.k1 = A.k GROUP BY C.k1, C.k2, A.s`,
	`SELECT A.id, B.bid, COUNT(*) AS n FROM A, B WHERE A.s = B.s GROUP BY A.id, B.bid`,
	`SELECT A.s, B.s AS bs, COUNT(*) AS n FROM A, B WHERE A.k = B.k AND A.v >= 2 GROUP BY A.s, B.s`,
	// Alphabets too wide to pack (from 82 rows of W).
	`SELECT w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, COUNT(*) AS n FROM W GROUP BY w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11`,
	`SELECT X.wid, Y.wid AS yid FROM W AS X, W AS Y WHERE X.w0 = Y.w0 AND X.w1 = Y.w1 AND X.w2 = Y.w2 AND X.w3 = Y.w3 AND X.w4 = Y.w4 AND X.w5 = Y.w5 AND X.w6 = Y.w6 AND X.w7 = Y.w7 AND X.w8 = Y.w8 AND X.w9 = Y.w9 AND X.w10 = Y.w10 AND X.w11 = Y.w11`,
	// Errors after the join: a duplicate view key, an ungrouped column, an
	// aggregate without GROUP BY.
	`SELECT A.id FROM A, B WHERE A.k = B.k`,
	`SELECT A.s, A.v FROM A GROUP BY A.s`,
	`SELECT AVG(w) FROM A`,
}

func parseSelect(t testing.TB, src string) *hyperql.SelectStmt {
	t.Helper()
	q, err := hyperql.Parse("USE (" + src + ") UPDATE(w) = 1 OUTPUT COUNT(*)")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.(*hyperql.WhatIf).Use.Select
}

// checkSelectParity holds Select to the []Value-row executor on one
// database: the same error, or the same schema and, column by column, the
// relation Insert built from the reference's rows (sameColumns), with a
// provenance that holds (checkProvenance).
func checkSelectParity(t testing.TB, db *relation.Database, src string) {
	t.Helper()
	sel := parseSelect(t, src)
	want, wantErr := refRunSelect(db, sel, "V")
	v, gotErr := Select(db, sel, "V")
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s\n  error %v, reference %v", src, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	got := v.Rel
	if !reflect.DeepEqual(got.Schema().Columns(), want.Schema().Columns()) {
		t.Fatalf("%s\n  schema %v, reference %v", src, got.Schema(), want.Schema())
	}
	if err := sameColumns(got, want); err != nil {
		t.Fatalf("%s\n  %v\n%v\nreference:\n%v", src, err, got, want)
	}
	if err := checkProvenance(v, sel); err != nil {
		t.Fatalf("%s\n  %v", src, err)
	}
}

// checkProvenance holds a View's source map to its select: a plain column's
// source is the column the item names and its value at view row i is, by
// bits, its source's at Rows[t][i]; an aggregate's source is its argument
// (Table -1 for COUNT(*)); and a grouped select whose GROUP BY reads only
// tables whose whole key it covers reads distinct base rows of those tables
// per view row.
func checkProvenance(v *View, sel *hyperql.SelectStmt) error {
	// ref finds the FROM table and column a reference names, independently
	// of the executor's resolver.
	ref := func(c *hyperql.ColRef) (int, int) {
		for t, tr := range sel.From {
			if c.Table != "" && c.Table != tr.Alias && c.Table != tr.Name {
				continue
			}
			if ci, ok := v.Tables[t].Schema().Index(c.Name); ok {
				return t, ci
			}
		}
		return -1, -1
	}
	if len(v.Tables) != len(sel.From) || len(v.Rows) != len(sel.From) || len(v.Cols) != v.Rel.Schema().Len() {
		return fmt.Errorf("%d tables, %d row lists and %d sources for %d FROM entries and %d columns",
			len(v.Tables), len(v.Rows), len(v.Cols), len(sel.From), v.Rel.Schema().Len())
	}
	for c, item := range sel.Items {
		s, want := v.Cols[c], Source{Table: -1, Agg: true}
		switch x := item.Expr.(type) {
		case *hyperql.ColRef:
			want.Table, want.Col = ref(x)
			want.Agg = false
		case *hyperql.Aggregate:
			if arg, ok := x.Expr.(*hyperql.ColRef); ok {
				want.Table, want.Col = ref(arg)
			}
		}
		if s != want {
			return fmt.Errorf("column %d (%s): source %+v, want %+v", c, item.Expr, s, want)
		}
		if s.Agg {
			continue
		}
		rows := v.Rows[s.Table]
		if len(rows) != v.Rel.Len() {
			return fmt.Errorf("column %d (%s): %d base rows for %d view rows", c, item.Expr, len(rows), v.Rel.Len())
		}
		for i, r := range rows {
			if got, base := v.Rel.Value(i, c), v.Tables[s.Table].Value(int(r), s.Col); !sameValue(got, base) {
				return fmt.Errorf("column %d (%s) row %d: %#v, its base row %d holds %#v", c, item.Expr, i, got, r, base)
			}
		}
	}
	// The key-covered tables, when every GROUP BY column reads one of them
	// and a plain column reads each: their base rows name the group.
	var covered []int
	for t, rows := range v.Rows {
		keys := v.Tables[t].Schema().KeyIndexes()
		all := len(keys) > 0
		for _, k := range keys {
			grouped := false
			for _, g := range sel.GroupBy {
				gt, gc := ref(g)
				grouped = grouped || gt == t && gc == k
			}
			all = all && grouped
		}
		if all && rows != nil {
			covered = append(covered, t)
		}
	}
	for _, g := range sel.GroupBy {
		if gt, _ := ref(g); !slices.Contains(covered, gt) {
			covered = nil
		}
	}
	if len(covered) > 0 {
		seen := make(map[string]int, v.Rel.Len())
		for i := range v.Rel.Len() {
			key := ""
			for _, t := range covered {
				key += fmt.Sprintf("%d,", v.Rows[t][i])
			}
			if j, dup := seen[key]; dup {
				return fmt.Errorf("the GROUP BY covers the keys of tables %v, yet view rows %d and %d read their rows %s", covered, j, i, key)
			}
			seen[key] = i
		}
	}
	return nil
}

// sameColumns compares two relations over one schema through everything a
// column exports: every row's code, the first-seen values, Exact, the
// summary, Card, Code of every value, and every row's value with its kind
// and float bits.
func sameColumns(got, want *relation.Relation) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, reference %d", got.Len(), want.Len())
	}
	for ci := range want.Schema().Len() {
		g, w, name := got.Coded(ci), want.Coded(ci), want.Schema().Col(ci).Name
		for i := range want.Len() {
			if g.At(i) != w.At(i) {
				return fmt.Errorf("column %s row %d: code %d, reference %d", name, i, g.At(i), w.At(i))
			}
		}
		if len(g.Values) != len(w.Values) {
			return fmt.Errorf("column %s: %d values, reference %d", name, len(g.Values), len(w.Values))
		}
		for code, v := range w.Values {
			if !sameValue(g.Values[code], v) {
				return fmt.Errorf("column %s code %d: %#v, reference %#v", name, code, g.Values[code], v)
			}
			if c, ok := g.Code(v); !ok || c != uint32(code) {
				return fmt.Errorf("column %s: Code(%v) = %d,%v, reference %d", name, v, c, ok, code)
			}
		}
		if g.Exact != w.Exact || g.Nulls != w.Nulls || g.Numeric != w.Numeric || g.Card() != w.Card() ||
			math.Float64bits(g.Min) != math.Float64bits(w.Min) || math.Float64bits(g.Max) != math.Float64bits(w.Max) {
			return fmt.Errorf("column %s: summary %+v, reference %+v", name, *g, *w)
		}
		for i := range want.Len() {
			if gv, wv := got.Value(i, ci), want.Value(i, ci); !sameValue(gv, wv) {
				return fmt.Errorf("column %s row %d: %#v, reference %#v", name, i, gv, wv)
			}
		}
	}
	return nil
}

// sameValue reports that two values agree in kind and payload, floats by
// their bits.
func sameValue(a, b relation.Value) bool {
	return a.Kind() == b.Kind() && a.AsInt() == b.AsInt() && a.AsString() == b.AsString() &&
		math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
}

func TestRunSelectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		// Seed 6 has an empty A: joins, groups and the cross product over
		// no rows.
		nA := []int{30, 17, 40, 3, 25, 0}[seed-1]
		db := parityDB(seed, nA, 25, 12, 100)
		for _, src := range paritySelects {
			checkSelectParity(t, db, src)
		}
	}
	// 300 rows of A: A.id and A.w pass 256 distinct values, so the view's
	// columns over them widen from one-byte to four-byte codes, projected
	// and grouped alike.
	wide := parityDB(8, 300, 40, 12, 10)
	for _, src := range paritySelects {
		checkSelectParity(t, wide, src)
	}
	// The cross-product guard: 2300 x 2300 rows is past the 5,000,000 limit,
	// refused before anything is materialized.
	big := parityDB(7, 2300, 1, 2300, 1)
	checkSelectParity(t, big, `SELECT A.id, C.k1, C.k2 FROM A, C`)
	if _, err := RunSelect(big, parseSelect(t, `SELECT A.id, C.k1, C.k2 FROM A, C`), "V"); err == nil {
		t.Error("a 2300 x 2300 cross product should be refused")
	}
}

// TestRunSelectNaNAggregates holds SUM and AVG over NaN-bearing columns to
// the reference, by bits: over a column with one NaN payload every row holds
// its code's value to the bit, so the aggregate reads through the codes, and
// over one with two payloads sharing a code it reads the rows.
func TestRunSelectNaNAggregates(t *testing.T) {
	payloads := []float64{math.NaN(), math.Float64frombits(0xfff8000000000abc)}
	for _, tc := range []struct {
		name  string
		nans  int // distinct NaN payloads in column x
		exact bool
	}{{"one payload", 1, true}, {"two payloads", 2, false}} {
		n := relation.NewRelation("N", relation.MustSchema(
			relation.Column{Name: "id", Kind: relation.KindInt, Key: true},
			relation.Column{Name: "g", Kind: relation.KindString},
			relation.Column{Name: "x", Kind: relation.KindFloat, Mutable: true},
		))
		for i := 0; i < 24; i++ {
			x := relation.Float(float64(i%5) / 4)
			switch {
			case i%7 == 3:
				x = relation.Float(payloads[(i/7)%tc.nans])
			case i%11 == 5:
				x = relation.Null
			}
			n.MustInsert(relation.Int(int64(i)), relation.String([]string{"a", "b", "c"}[i%3]), x)
		}
		if got := n.Coded(2).Exact; got != tc.exact {
			t.Fatalf("%s: column x Exact = %v, want %v", tc.name, got, tc.exact)
		}
		db := relation.NewDatabase()
		db.MustAdd(n)
		for _, src := range []string{
			`SELECT g, SUM(x) AS sx, AVG(x) AS ax, COUNT(*) AS c FROM N GROUP BY g`,
			`SELECT id, g, SUM(x) AS sx, AVG(x) AS ax FROM N GROUP BY id, g`,
		} {
			checkSelectParity(t, db, src)
		}
	}
}

func FuzzRunSelectParity(f *testing.F) {
	for i := range paritySelects {
		f.Add(int64(i), uint8(20), uint8(20), uint8(9), uint8(95), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, nA, nB, nC, nW, query uint8) {
		db := parityDB(seed, int(nA)%48, int(nB)%48, int(nC)%24, int(nW)%128)
		checkSelectParity(t, db, paritySelects[int(query)%len(paritySelects)])
	})
}

// TestRunSelectConcurrentExtend: a gather reads the base columns' storage
// directly, and the first Extend of a relation appends into that storage in
// place, past the relation's rows. Selects over one database run while
// another goroutine extends its Product and Review (first extensions,
// extensions of those, and siblings); every view must equal the one taken
// before any extension, its provenance read through the base relations it
// was selected from. Run under -race.
func TestRunSelectConcurrentExtend(t *testing.T) {
	db := dataset.AmazonSyn(400, 4, 3).DB
	queries := []string{figure1Select,
		`SELECT T2.PID, T2.ReviewID, T2.Rating, T1.Price FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID`}
	sels := make([]*hyperql.SelectStmt, len(queries))
	wants := make([]*relation.Relation, len(queries))
	for i, q := range queries {
		sels[i] = parseSelect(t, q)
		v, err := Select(db, sels[i], "V")
		if err != nil {
			t.Fatal(err)
		}
		if err := checkProvenance(v, sels[i]); err != nil {
			t.Fatal(err)
		}
		wants[i] = v.Rel
	}
	const readers = 4
	errs := make(chan error, readers+1) // each goroutine sends at most one
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		prod, rev := db.Relation("Product"), db.Relation("Review")
		for v := range 8 {
			pid := relation.Int(int64(10_000 + v))
			p, err := prod.Extend([]relation.Tuple{{pid, relation.String("Laptop"), relation.String("Acme"),
				relation.String("Green"), relation.Float(0.5), relation.Float(1e4 + float64(v))}})
			if err != nil {
				errs <- err
				return
			}
			r, err := rev.Extend([]relation.Tuple{
				{pid, relation.Int(int64(1_000_000 + v)), relation.Float(0.1), relation.Int(5)},
				{relation.Int(0), relation.Int(int64(2_000_000 + v)), relation.Float(-0.1), relation.Int(1)},
			})
			if err != nil {
				errs <- err
				return
			}
			if v%2 == 0 { // the next round extends these; otherwise it is their sibling
				prod, rev = p, r
			}
		}
	}()
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 3 {
				for i, sel := range sels {
					got, err := Select(db, sel, "V")
					if err == nil {
						err = sameColumns(got.Rel, wants[i])
					}
					if err == nil {
						err = checkProvenance(got, sel)
					}
					if err != nil {
						errs <- fmt.Errorf("%s: %v", queries[i], err)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
