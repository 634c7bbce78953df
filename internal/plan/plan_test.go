package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
	"hyper/internal/sqlmini"
)

// testDB builds a small database whose one relation exercises where value
// identity is subtle: a clean string column, clean numerics, a NULL-bearing
// column, a NaN-bearing column, whole floats past float64's integer
// precision, and a mixed-kind column.
func testDB(t testing.TB) (*relation.Database, *relation.Relation) {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "ID", Key: true},
		relation.Column{Name: "Cat"},
		relation.Column{Name: "Price", Mutable: true},
		relation.Column{Name: "Qty", Mutable: true},
		relation.Column{Name: "Wild", Mutable: true},
		relation.Column{Name: "Big", Mutable: true},
		relation.Column{Name: "Mix", Mutable: true},
	)
	rel := relation.NewRelation("Items", schema)
	type row struct {
		cat  string
		pr   float64
		qty  relation.Value
		wild float64
		big  float64
		mix  relation.Value
	}
	rows := []row{
		{"a", 10, relation.Int(1), 1, 1e16, relation.Int(1)},
		{"b", 20, relation.Int(2), math.NaN(), 2e16, relation.String("x")},
		{"a", 30, relation.Null, 2, 1e16, relation.Int(2)},
		{"c", 40, relation.Int(3), 3, 3e16, relation.String("y")},
		{"a", 50, relation.Int(1), 4, 1e16, relation.Int(3)},
		{"b", 60, relation.Int(2), 5, 2e16, relation.String("z")},
		{"a", 70, relation.Int(1), 6, 1e16, relation.Int(1)},
		{"d", 80, relation.Int(4), 7, 4e16, relation.String("x")},
	}
	for i, r := range rows {
		rel.MustInsert(relation.Int(int64(i+1)), relation.String(r.cat),
			relation.Float(r.pr), r.qty, relation.Float(r.wild),
			relation.Float(r.big), r.mix)
	}
	db := relation.NewDatabase()
	db.MustAdd(rel)
	return db, rel
}

// parseWhen wraps a WHEN clause in a minimal what-if and parses it.
func parseWhen(t testing.TB, when string) *hyperql.WhatIf {
	t.Helper()
	src := "USE Items "
	if when != "" {
		src += "WHEN " + when + " "
	}
	src += "UPDATE(Price) = 1 OUTPUT COUNT(Price = 1)"
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// oracleMask is the reference the planner is held to (no production code
// evaluates a WHEN tree this way): sqlmini.EvalBool per row, in row order,
// over the whole tree, stopping at the first failing row.
func oracleMask(when hyperql.Expr, rel *relation.Relation) ([]bool, error) {
	mask := make([]bool, rel.Len())
	env := sqlmini.RowEnv{Rel: rel}
	for i := range mask {
		if when == nil {
			mask[i] = true
			continue
		}
		env.Row = i
		ok, err := sqlmini.EvalBool(when, env)
		if err != nil {
			return nil, err
		}
		mask[i] = ok
	}
	return mask, nil
}

// rowLoopMask is oracleMask for WHEN clauses that must evaluate.
func rowLoopMask(t testing.TB, when hyperql.Expr, rel *relation.Relation) []bool {
	t.Helper()
	mask, err := oracleMask(when, rel)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return mask
}

func TestCompileClassification(t *testing.T) {
	db, rel := testDB(t)
	c := NewCache(0)
	q := parseWhen(t, "Cat = 'a' AND Price > 25 AND Qty IN (1, 2) AND Mix < 3 AND ID + 1 = 2 AND Wild >= 1")
	p, hit := c.WhatIf(db, "v", q, rel)
	if hit {
		t.Fatal("first compile reported a cache hit")
	}
	if p.Fallback {
		t.Fatalf("unexpected fallback: %s", p.FallbackReason)
	}
	byPos := make(map[int]Conjunct)
	for _, cj := range p.Conjuncts {
		byPos[cj.Pos] = cj
	}
	want := map[int]Op{
		0: OpEq,       // Cat = 'a'
		1: OpGt,       // Price > 25
		2: OpIn,       // Qty IN (1, 2)
		3: OpLt,       // Mix < 3: a mixed-kind column orders by Value.Compare
		4: OpResidual, // ID + 1 = 2: arithmetic left side
		5: OpGe,       // Wild >= 1: NaN is one value above every number
	}
	for pos, op := range want {
		if got := byPos[pos].Op; got != op {
			t.Errorf("conjunct %d: op = %s, want %s", pos, got, op)
		}
	}
	if got, wantN := p.Pushed(), 5; got != wantN {
		t.Errorf("Pushed() = %d, want %d", got, wantN)
	}
}

func TestCostOrderingAndExplainDeterminism(t *testing.T) {
	db, rel := testDB(t)
	// Written range-first: equality on Cat (sel 1/4) must still run before
	// the range on Price (sel 1/3).
	q := parseWhen(t, "Price > 5 AND Cat = 'a'")
	p, _ := NewCache(0).WhatIf(db, "v", q, rel)
	if p.Conjuncts[0].Col != "Cat" || p.Conjuncts[1].Col != "Price" {
		t.Fatalf("cost order = [%s %s], want [Cat Price]\n%s",
			p.Conjuncts[0].Col, p.Conjuncts[1].Col, p.Explain())
	}
	p2, _ := NewCache(0).WhatIf(db, "v", q, rel)
	if p.Explain() != p2.Explain() {
		t.Fatalf("explain not deterministic:\n%s\nvs\n%s", p.Explain(), p2.Explain())
	}
	if strings.Contains(p.Explain(), "'a'") || strings.Contains(p.Explain(), " 5") {
		t.Fatalf("explain leaks literals:\n%s", p.Explain())
	}
}

func TestFallbackOnUnresolvableWhen(t *testing.T) {
	db, rel := testDB(t)
	c := NewCache(0)
	q := parseWhen(t, "Nope = 1 AND Cat = 'a'")
	p, _ := c.WhatIf(db, "v", q, rel)
	if !p.Fallback {
		t.Fatal("WHEN over an unknown column did not fall back")
	}
	if !strings.Contains(p.FallbackReason, "Nope") {
		t.Errorf("fallback reason %q does not name the column", p.FallbackReason)
	}
	if len(p.Conjuncts) != 0 || p.Pushed() != 0 {
		t.Errorf("fallback plan carries conjuncts %v", p.Conjuncts)
	}
}

// TestApplyMatchesRowLoop is the bit-identity property at the mask level:
// for every WHEN shape (pushed, residual, absent values, NULLs, NaN columns,
// magnitudes past 2⁵³, mixed kinds, and trees that fall back), Apply must
// produce exactly the row-at-a-time EvalBool mask — or exactly its error —
// with a plan cache and without one.
func TestApplyMatchesRowLoop(t *testing.T) {
	db, full := testDB(t)
	empty := relation.NewRelation("Items", full.Schema())
	cases := []struct {
		when      string
		minPushed int
		fallback  bool
		rel       *relation.Relation
	}{
		{"", 0, false, full},
		{"Cat = 'a'", 1, false, full},
		{"Cat = 'zz'", 1, false, full}, // absent value: pushed scan, empty set
		{"Cat != 'a'", 1, false, full},
		{"Qty = 1", 1, false, full},  // NULL row must stay excluded
		{"Qty != 1", 1, false, full}, // ...for != too (NULL != 1 is not true)
		{"Price <= 40", 1, false, full},
		{"55 < Price", 1, false, full}, // flipped literal side
		{"Cat IN ('a', 'd')", 1, false, full},
		{"Cat NOT IN ('a')", 1, false, full},
		{"Qty IN (1, 3)", 1, false, full},
		// A NaN column: NaN is one value, above every number.
		{"Wild > 2", 1, false, full},
		{"Wild = 5", 1, false, full},
		{"Wild != 5", 1, false, full},
		{"Wild < 3", 1, false, full},
		{"Wild >= 100", 1, false, full},
		{"Wild IN (1, 3)", 1, false, full},
		{"Wild NOT IN (1, 3)", 1, false, full},
		// Whole floats past 2⁵³ against ints: one they equal, one just past.
		{"Big = 20000000000000000", 1, false, full},
		{"Big = 10000000000000001", 1, false, full},
		{"Big != 10000000000000001", 1, false, full},
		{"Big < 10000000000000001", 1, false, full},
		{"Big >= 10000000000000001", 1, false, full},
		{"Big IN (10000000000000001, 20000000000000000)", 1, false, full},
		{"Big NOT IN (10000000000000001, 20000000000000000)", 1, false, full},
		// Mixed kinds order by kind rank first.
		{"Mix < 3", 1, false, full},
		{"Mix = 2", 1, false, full},
		{"Mix != 'x'", 1, false, full},
		{"Mix >= 'y'", 1, false, full},
		{"Mix IN (1, 'z')", 1, false, full},
		{"Mix NOT IN (1, 'z')", 1, false, full},
		{"NOT (Cat = 'a')", 0, false, full}, // unary NOT is residual
		{"ID + 1 = 3", 0, false, full},      // arithmetic is residual
		{"Cat = 'a' AND Price > 25 AND Qty IN (1, 2)", 3, false, full},
		{"Price > 25 AND Wild > 2 AND Cat != 'b'", 3, false, full},
		{"Cat IN ('a', 'b') AND ID + 1 = 3 AND Qty != 2", 2, false, full},
		// Fallback shapes: the whole tree runs as one residual conjunct in
		// row order, so the oracle's error behaviour is the plan's.
		{"Nope = 1", 0, true, full},                // first row fails
		{"Cat = 'a' AND Nope = 1", 0, true, full},  // fails on the first row reaching Nope
		{"Nope = 1", 0, true, empty},               // zero rows: no error, empty S
		{"Cat = 'zz' AND Nope = 1", 0, true, full}, // AND short-circuits: no error, empty S
		{"Cat != 'zz' OR Nope = 1", 0, true, full}, // OR short-circuits: no error, every row
	}
	for _, tc := range cases {
		for _, c := range []*Cache{NewCache(0), nil} {
			name := fmt.Sprintf("%s/rows=%d/cache=%v", tc.when, tc.rel.Len(), c != nil)
			t.Run(name, func(t *testing.T) {
				q := parseWhen(t, tc.when)
				p, hit := c.WhatIf(db, "v", q, tc.rel)
				if hit {
					t.Fatal("first compile reported a cache hit")
				}
				if p.Fallback != tc.fallback {
					t.Fatalf("fallback = %v (%s), want %v", p.Fallback, p.FallbackReason, tc.fallback)
				}
				inS := make([]bool, tc.rel.Len())
				pushed, err := c.Apply(p, q, tc.rel, inS)
				want, wantErr := oracleMask(q.When, tc.rel)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("planned err = %v, row loop err = %v", err, wantErr)
				}
				if err != nil {
					return
				}
				if pushed < tc.minPushed {
					t.Errorf("pushed = %d, want >= %d", pushed, tc.minPushed)
				}
				for i := range want {
					if inS[i] != want[i] {
						t.Fatalf("row %d: planned=%v rowloop=%v\nmask   %v\nwant   %v\n%s",
							i, inS[i], want[i], inS, want, p.Explain())
					}
				}
			})
		}
	}
}

// TestPushdownValueOrder pins the masks of conjuncts over testDB's NaN,
// huge-magnitude and mixed-kind columns to rows worked out by hand: a NaN is
// equal only to itself and above every number, an int literal past 2⁵³ does
// not equal the float it rounds to, and kinds order NULL < bool < number <
// string.
func TestPushdownValueOrder(t *testing.T) {
	_, rel := testDB(t)
	for _, tc := range []struct {
		when string
		rows []int // 0-based rows of testDB that hold
	}{
		{"Wild = 5", []int{5}},
		{"Wild <= 0", nil},
		{"Wild >= 100", []int{1}},
		{"Wild > 6", []int{1, 7}},
		{"Wild IN (1, 3)", []int{0, 3}},
		{"Wild != 1", []int{1, 2, 3, 4, 5, 6, 7}},
		{"Big = 10000000000000001", nil},
		{"Big = 10000000000000000", []int{0, 2, 4, 6}},
		{"Big > 10000000000000001", []int{1, 3, 5, 7}},
		{"Big <= 10000000000000001", []int{0, 2, 4, 6}},
		{"Mix < 3", []int{0, 2, 6}},
		{"Mix > 3", []int{1, 3, 5, 7}},
		{"Mix >= 'y'", []int{3, 5}},
	} {
		when, err := hyperql.ParseExpr(tc.when)
		if err != nil {
			t.Fatal(err)
		}
		p := Compile(rel, when)
		inS := make([]bool, rel.Len())
		pushed, err := p.Apply(when, rel, inS)
		if err != nil || pushed != 1 {
			t.Fatalf("%s: Apply = %d pushed, %v; want 1 pushed", tc.when, pushed, err)
		}
		want := make([]bool, rel.Len())
		for _, r := range tc.rows {
			want[r] = true
		}
		if fmt.Sprint(inS) != fmt.Sprint(want) {
			t.Errorf("%s: mask %v, want %v", tc.when, inS, want)
		}
		if rowLoop := rowLoopMask(t, when, rel); fmt.Sprint(rowLoop) != fmt.Sprint(want) {
			t.Errorf("%s: row loop %v, want %v", tc.when, rowLoop, want)
		}
	}
}

// pushdownPool mirrors the values relation's FuzzColumnKeyParity draws, where
// value identity and order are subtle: NULL, the bools, ints beside the
// floats they round to near ±2⁵³ and at the ends of int64's range, NaN
// payloads, the signed zeros, the infinities, and strings.
func pushdownPool() []relation.Value {
	return []relation.Value{
		relation.Null, relation.Bool(false), relation.Bool(true),
		relation.Int(0), relation.Int(5), relation.Int(-5),
		relation.Int(1 << 53), relation.Int(1<<53 + 1), relation.Int(-(1<<53 + 1)),
		relation.Int(math.MaxInt64), relation.Int(math.MinInt64), relation.Int(math.MinInt64 + 1),
		relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(5), relation.Float(2.5),
		relation.Float(1 << 53), relation.Float(-(1 << 53)), relation.Float(1 << 63), relation.Float(-(1 << 63)),
		relation.Float(math.Nextafter(1<<63, 0)), relation.Float(1e300),
		relation.Float(math.NaN()), relation.Float(math.Float64frombits(0xfff8000000000abc)),
		relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)),
		relation.String(""), relation.String("5"), relation.String("NaN"), relation.String("x"),
	}
}

// FuzzPushdownParity holds every pushed operator to the row loop on columns
// drawn from pushdownPool: the first byte picks the operator (and whether the
// literal sits on the left), the next the literals, the rest one row each.
// The conjunct must compile pushed, run pushed, and keep exactly the rows
// sqlmini.EvalBool keeps.
func FuzzPushdownParity(f *testing.F) {
	f.Add([]byte{0, 22, 4, 22, 23, 14, 0, 3})
	f.Add([]byte{3, 7, 16, 7, 6, 22, 0})
	f.Add([]byte{10, 10, 18, 9, 10, 19, 20})
	f.Add([]byte{6, 0, 2, 3, 22, 26, 29, 0, 1})
	f.Add([]byte{8, 4, 12, 13, 14, 4, 22})
	f.Add([]byte{13, 26, 25, 2, 26, 27, 28, 29})
	ops := []string{"=", "!=", "<", "<=", ">", ">=", "IN", "NOT IN"}
	pool := pushdownPool()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		op, flip := ops[int(data[0])%len(ops)], data[0]&0x80 != 0
		lits := []relation.Value{pool[int(data[1])%len(pool)]}
		if strings.HasSuffix(op, "IN") {
			lits = append(lits, pool[int(data[1]/3)%len(pool)], pool[int(data[1]/7)%len(pool)])
		}
		rel := relation.NewRelation("T", relation.MustSchema(relation.Column{Name: "ID", Key: true}, relation.Column{Name: "V"}))
		for i, b := range data[2:] {
			rel.MustInsert(relation.Int(int64(i)), pool[int(b)%len(pool)])
		}
		col := &hyperql.ColRef{Name: "V"}
		var when hyperql.Expr
		if strings.HasSuffix(op, "IN") {
			in := &hyperql.InList{X: col, Neg: op == "NOT IN"}
			for _, v := range lits {
				in.Vals = append(in.Vals, &hyperql.Literal{Val: v})
			}
			when = in
		} else if lit := (&hyperql.Literal{Val: lits[0]}); flip {
			when = &hyperql.Binary{Op: op, L: lit, R: col}
		} else {
			when = &hyperql.Binary{Op: op, L: col, R: lit}
		}
		p := Compile(rel, when)
		if p.Fallback || p.Pushed() != 1 {
			t.Fatalf("%s compiled with %d pushed (fallback %v)", when, p.Pushed(), p.Fallback)
		}
		inS := make([]bool, rel.Len())
		pushed, err := p.Apply(when, rel, inS)
		if err != nil || pushed != 1 {
			t.Fatalf("%s: Apply = %d pushed, %v", when, pushed, err)
		}
		want := rowLoopMask(t, when, rel)
		for i := range want {
			if inS[i] != want[i] {
				t.Fatalf("%s row %d (%#v): pushed %v, row loop %v", when, i, rel.Value(i, 1), inS[i], want[i])
			}
		}
	})
}

func TestCacheHitReusesPlanAndRebindsLiterals(t *testing.T) {
	db, rel := testDB(t)
	c := NewCache(0)
	q1 := parseWhen(t, "Cat = 'a'")
	q2 := parseWhen(t, "Cat = 'b'") // same shape, different literal
	p1, hit := c.WhatIf(db, "v", q1, rel)
	if hit {
		t.Fatal("cold compile reported a hit")
	}
	p2, hit := c.WhatIf(db, "v", q2, rel)
	if !hit {
		t.Fatal("structurally identical query missed the cache")
	}
	if p1 != p2 {
		t.Fatal("hit returned a different plan object")
	}
	for q, wantCat := range map[*hyperql.WhatIf]string{q1: "a", q2: "b"} {
		inS := make([]bool, rel.Len())
		if _, err := c.Apply(p2, q, rel, inS); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		want := rowLoopMask(t, q.When, rel)
		for i := range want {
			if inS[i] != want[i] {
				t.Fatalf("literal %q not re-bound: row %d planned=%v rowloop=%v", wantCat, i, inS[i], want[i])
			}
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Compiles != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 compile", st)
	}
}

func TestLRUEviction(t *testing.T) {
	db, rel := testDB(t)
	c := NewCache(2) // the bound counts plans only; column data lives on rel
	shapes := []string{"Cat = 'a'", "Price > 5", "Qty IN (1)"}
	qs := make([]*hyperql.WhatIf, len(shapes))
	for i, s := range shapes {
		qs[i] = parseWhen(t, s)
		if _, hit := c.WhatIf(db, "v", qs[i], rel); hit {
			t.Fatalf("compile %d reported a hit", i)
		}
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want the configured bound 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (the LRU plan)", st.Evictions)
	}
	if _, hit := c.WhatIf(db, "v", qs[2], rel); !hit {
		t.Error("most recent plan was evicted")
	}
	if _, hit := c.WhatIf(db, "v", qs[0], rel); hit {
		t.Error("evicted LRU plan still reported a hit")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Errorf("evictions after recompile = %d, want 2", st.Evictions)
	}
}

// TestCompileSingleFlight is the miss-path contract the how-to candidate
// pool leans on: goroutines missing one cold shape together compile it once
// and count one miss. Run under -race in CI's test job.
func TestCompileSingleFlight(t *testing.T) {
	db, rel := testDB(t)
	c := NewCache(0)
	const n = 8
	plans := make([]*WhatIfPlan, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		// Candidates of one attribute: same shape, different literals.
		q := parseWhen(t, fmt.Sprintf("Cat = 'a' AND Price > %d", g))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			plans[g], _ = c.WhatIf(db, "v", q, rel)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < n; g++ {
		if plans[g] != plans[0] || plans[g] == nil {
			t.Fatalf("goroutine %d got plan %p, want the shared %p", g, plans[g], plans[0])
		}
	}
	st := c.Stats()
	if st.Compiles != 1 || st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want 1 compile / 1 miss / %d hits", st, n-1)
	}
}

// TestSchemaSignatureInvalidation pins the cache-identity contract: the same
// query text against a schema with one changed column must key to a
// different fingerprint, so a re-uploaded database can never be served a
// stale pushdown program.
func TestSchemaSignatureInvalidation(t *testing.T) {
	db, rel := testDB(t)
	schema2 := relation.MustSchema(
		relation.Column{Name: "ID", Key: true},
		relation.Column{Name: "Cat", Kind: relation.KindString}, // declared kind changes the signature
	)
	rel2 := relation.NewRelation("Items", schema2)
	rel2.MustInsert(relation.Int(1), relation.String("a"))
	db2 := relation.NewDatabase()
	db2.MustAdd(rel2)

	if Signature(db) == Signature(db2) {
		t.Fatal("different schemas produced the same signature")
	}
	q := parseWhen(t, "Cat = 'a'")
	if Fingerprint(db, q) == Fingerprint(db2, q) {
		t.Fatal("same query text fingerprints identically across schemas")
	}
	c := NewCache(0)
	if _, hit := c.WhatIf(db, "v", q, rel); hit {
		t.Fatal("cold compile hit")
	}
	if _, hit := c.WhatIf(db, "v", q, rel); !hit {
		t.Fatal("repeat against the same schema missed")
	}
	if _, hit := c.WhatIf(db2, "v2", q, rel2); hit {
		t.Fatal("changed schema was served the cached plan")
	}
}

// TestConcurrentPlanners hammers one shared cache from many goroutines —
// compiles, hits, evictions, and Apply all interleave — and checks every
// produced mask against the row loop. Run under -race in CI's test job.
func TestConcurrentPlanners(t *testing.T) {
	db, rel := testDB(t)
	c := NewCache(4) // small bound so eviction races with lookup
	shapes := []string{
		"Cat = 'a'",
		"Price > 25 AND Cat != 'b'",
		"Qty IN (1, 2)",
		"Wild > 2 AND Cat = 'a'",
		"Cat NOT IN ('b') AND ID + 1 = 3",
		"Price <= 40",
	}
	qs := make([]*hyperql.WhatIf, len(shapes))
	wants := make([][]bool, len(shapes))
	for i, s := range shapes {
		qs[i] = parseWhen(t, s)
		wants[i] = rowLoopMask(t, qs[i].When, rel)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				i := (g + it) % len(qs)
				p, _ := c.WhatIf(db, "v", qs[i], rel)
				inS := make([]bool, rel.Len())
				if _, err := c.Apply(p, qs[i], rel, inS); err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: Apply: %v", g, it, err)
					return
				}
				for r := range inS {
					if inS[r] != wants[i][r] {
						errs <- fmt.Errorf("goroutine %d iter %d shape %q row %d: mask diverged", g, it, shapes[i], r)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Entries > 4 {
		t.Errorf("entries = %d, exceeds bound 4", st.Entries)
	}
	if st.Compiles == 0 || st.Hits == 0 {
		t.Errorf("stats = %+v, want both compiles and hits under contention", st)
	}
}

// BenchmarkApply times the WHEN stage alone — a compiled plan's Apply over a
// 20,000-row relation — for three pushed conjunct kinds and the row-loop
// residual: equality and a range on a 4-value column, a range on a column of
// 20,000 distinct floats, and the two-column residual A + B >= 3.
//
//	go test -run '^$' -bench BenchmarkApply -benchtime 200x ./internal/plan
func BenchmarkApply(b *testing.B) {
	const n = 20000
	rel := relation.NewRelation("T", relation.MustSchema(
		relation.Column{Name: "A", Mutable: true},
		relation.Column{Name: "B", Mutable: true},
		relation.Column{Name: "F", Mutable: true},
	))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		rel.MustInsert(relation.Int(int64(i%4)), relation.Int(int64(i/4%4)), relation.Float(rng.Float64()))
	}
	inS := make([]bool, n)
	for _, c := range []struct {
		name, when string
		pushed     int
	}{
		{"eq/4-values", "A = 2", 1},
		{"range/4-values", "A >= 2", 1},
		{"range/20000-distinct", "F < 0.5", 1},
		{"residual/A+B", "A + B >= 3", 0},
	} {
		when, err := hyperql.ParseExpr(c.when)
		if err != nil {
			b.Fatal(err)
		}
		p := Compile(rel, when)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pushed, err := p.Apply(when, rel, inS)
				if err != nil || pushed != c.pushed {
					b.Fatalf("Apply = %d, %v; want %d pushed", pushed, err, c.pushed)
				}
			}
		})
	}
}
