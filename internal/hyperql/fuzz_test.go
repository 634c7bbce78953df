package hyperql

import (
	"strings"
	"testing"

	"hyper/internal/relation"
)

// otherValue returns a different constant of v's kind (NULL has only one).
func otherValue(v relation.Value) relation.Value {
	switch v.Kind() {
	case relation.KindInt:
		return relation.Int(v.AsInt() ^ 0x5a5)
	case relation.KindFloat:
		return relation.Float(-3*v.AsFloat() + 0.5)
	case relation.KindString:
		return relation.String(v.AsString() + "'x")
	case relation.KindBool:
		return relation.Bool(!v.AsBool())
	}
	return v
}

// rewriteLiterals replaces every constant of q in place with another value of
// the same kind: each Literal node (USE sub-select included), update constant
// and LIMIT bound, threshold, list value and budget. An absent range bound
// stays absent, since which bounds exist is structure.
func rewriteLiterals(q Query) {
	lits := func(e Expr) {
		Walk(e, func(x Expr) bool {
			if l, ok := x.(*Literal); ok {
				l.Val = otherValue(l.Val)
			}
			return true
		})
	}
	var use *UseClause
	switch x := q.(type) {
	case *WhatIf:
		use = x.Use
		lits(x.When)
		lits(x.Output)
		lits(x.For)
		for i := range x.Updates {
			x.Updates[i].Const = otherValue(x.Updates[i].Const)
		}
	case *HowTo:
		use = x.Use
		lits(x.When)
		lits(x.Obj)
		lits(x.For)
		for i := range x.Limits {
			l := &x.Limits[i]
			l.Lo, l.Hi, l.Theta, l.K = otherValue(l.Lo), otherValue(l.Hi), l.Theta+1, l.K+1
			for j := range l.Vals {
				l.Vals[j] = otherValue(l.Vals[j])
			}
		}
	}
	if s := use.Select; s != nil {
		for _, it := range s.Items {
			lits(it.Expr)
		}
		lits(s.Where)
	}
}

// FuzzParse drives arbitrary input through the parser and checks the
// canonicalization contract on everything that parses: String() must be a
// fixpoint (re-parsing the canonical form reproduces it exactly), the shape
// fingerprint — the plan-cache key — must be stable across the round-trip,
// and rewriting every constant to another of its kind must leave Shape and
// Fingerprint unchanged. CI runs this as a 30s smoke in the fuzz job; locally:
//
//	go test -fuzz=FuzzParse -fuzztime=30s ./internal/hyperql
func FuzzParse(f *testing.F) {
	seeds := []string{
		"USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)",
		"USE German WHEN Age = 2 UPDATE(Status) = 1 + PRE(Status) OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 0",
		"USE German WHEN Age IN (0, 2) AND Savings > 1 UPDATE(Savings) = 2 OUTPUT SUM(POST(Credit))",
		"USE German WHEN NOT (Housing = 1) UPDATE(Housing) = 0 OUTPUT COUNT(Credit = 1) FOR POST(Credit) = 1 OR PRE(Age) = 0",
		`USE (SELECT T1.PID, T1.Price, AVG(T2.Rating) AS Rtng
		      FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID
		      GROUP BY T1.PID, T1.Price)
		 WHEN Brand = 'Asus' UPDATE(Price) = 1.1 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`,
		"USE German HOWTOUPDATE Status, Savings LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)",
		"USE German WHEN Age != 3 HOWTOUPDATE Housing TOMAXIMIZE AVG(POST(Credit))",
		"USE German UPDATE(CreditAmount) = -2.5 OUTPUT COUNT(Credit = 1) FOR PRE(Age) IN (0, 1, 2)",
		"USE T HOWTOUPDATE A, B LIMIT 1 <= POST(A) <= 9.5 AND POST(B) >= -2 AND L1(PRE(A), POST(A)) <= 4 AND POST(B) IN ('x', TRUE, NULL) AND UPDATES <= 1 TOMINIMIZE SUM(POST(Y) * 2)",
		"USE (SELECT K, SUM(V * 2) AS S FROM T AS U WHERE V > 'a''b' GROUP BY K) WHEN NOT K IN (1.5e3, -2) UPDATE(K) = 'z' OUTPUT AVG(S) FOR -PRE(K) < 0",
		"", "USE", "USE German", "WHEN OUTPUT", "USE German UPDATE() = OUTPUT",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejected input is fine; not crashing is the property
		}
		canonical := q.String()
		q2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form does not re-parse:\n input %q\n canonical %q\n err %v", src, canonical, err)
		}
		if again := q2.String(); again != canonical {
			t.Fatalf("String() is not a fixpoint:\n input %q\n first %q\n second %q", src, canonical, again)
		}
		if fp, fp2 := Fingerprint("fuzz", q), Fingerprint("fuzz", q2); fp != fp2 {
			t.Fatalf("fingerprint unstable across round-trip: %s vs %s for %q", fp, fp2, canonical)
		}
		if len(strings.TrimSpace(canonical)) == 0 {
			t.Fatalf("parsed query %q canonicalizes to whitespace", src)
		}
		shape, fp := Shape(q), Fingerprint("fuzz", q)
		rewriteLiterals(q)
		if s := Shape(q); s != shape {
			t.Fatalf("shape depends on constants:\n input %q\n before %q\n after  %q", src, shape, s)
		}
		if f := Fingerprint("fuzz", q); f != fp {
			t.Fatalf("fingerprint depends on constants: %s vs %s for %q", fp, f, canonical)
		}
	})
}
