package hyperql

import (
	"strings"
	"testing"
	"testing/quick"

	"hyper/internal/relation"
)

func TestLexerBasics(t *testing.T) {
	toks, err := NewLexer(`USE Tbl WHEN a = 'it''s' AND b >= 2.5 -- comment
UPDATE(Price) = 1.1 * PRE(Price) /* block */ OUTPUT COUNT(*)`).Tokens()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[0] != "USE" || kinds[0] != TokKeyword {
		t.Errorf("first token = %v", toks[0])
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == TokString && tok.Text == "it's" {
			found = true
		}
	}
	if !found {
		t.Error("escaped string literal not lexed")
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("missing EOF")
	}
}

func TestLexerErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", `"unterminated`, "a @ b"} {
		if _, err := NewLexer(bad).Tokens(); err == nil {
			t.Errorf("lexing %q should fail", bad)
		}
	}
}

func TestLexerCaseInsensitiveKeywords(t *testing.T) {
	toks, err := NewLexer("use Select fOr").Tokens()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"USE", "SELECT", "FOR"} {
		if toks[i].Kind != TokKeyword || toks[i].Text != want {
			t.Errorf("token %d = %v", i, toks[i])
		}
	}
}

func TestParseWhatIfFull(t *testing.T) {
	q, err := ParseWhatIf(`
USE (SELECT T1.PID, T1.Price, AVG(T2.Rating) AS Rtng
     FROM Product AS T1, Review AS T2
     WHERE T1.PID = T2.PID
     GROUP BY T1.PID, T1.Price)
WHEN Brand = 'Asus'
UPDATE(Price) = 1.1 * PRE(Price)
OUTPUT AVG(POST(Rtng))
FOR PRE(Category) = 'Laptop' AND POST(Senti) > 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Use.Select == nil || len(q.Use.Select.Items) != 3 {
		t.Fatalf("use = %v", q.Use)
	}
	if len(q.Use.Select.GroupBy) != 2 {
		t.Errorf("group by = %v", q.Use.Select.GroupBy)
	}
	if q.When == nil {
		t.Error("WHEN missing")
	}
	if len(q.Updates) != 1 || q.Updates[0].Form != UpdateScale || q.Updates[0].Const.AsFloat() != 1.1 {
		t.Errorf("updates = %v", q.Updates)
	}
	if q.Output.Func != AggAvg {
		t.Errorf("output = %v", q.Output)
	}
	if !HasPost(q.For) {
		t.Error("FOR should contain a POST reference")
	}
}

func TestParseUpdateForms(t *testing.T) {
	cases := []struct {
		src  string
		form UpdateForm
		c    float64
	}{
		{`UPDATE(P) = 500`, UpdateSet, 500},
		{`UPDATE(P) = 1.1 * PRE(P)`, UpdateScale, 1.1},
		{`UPDATE(P) = PRE(P) * 2`, UpdateScale, 2},
		{`UPDATE(P) = 100 + PRE(P)`, UpdateShift, 100},
		{`UPDATE(P) = PRE(P) + 100`, UpdateShift, 100},
		{`UPDATE(P) = -50 + PRE(P)`, UpdateShift, -50},
	}
	for _, c := range cases {
		q, err := ParseWhatIf("USE T " + c.src + " OUTPUT COUNT(*)")
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		u := q.Updates[0]
		if u.Form != c.form || u.Const.AsFloat() != c.c {
			t.Errorf("%s parsed to %v", c.src, u)
		}
	}
	// Invalid forms.
	for _, bad := range []string{
		`UPDATE(P) = PRE(Q) * 2`,      // different attribute
		`UPDATE(P) = POST(P) * 2`,     // POST in update
		`UPDATE(P) = PRE(P) * PRE(P)`, // no constant
	} {
		if _, err := ParseWhatIf("USE T " + bad + " OUTPUT COUNT(*)"); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestParseMultiUpdate(t *testing.T) {
	q, err := ParseWhatIf(`USE T UPDATE(A) = 1 AND UPDATE(B) = 'Red' OUTPUT COUNT(*)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Updates) != 2 || q.Updates[1].Const.AsString() != "Red" {
		t.Errorf("updates = %v", q.Updates)
	}
}

func TestParseUpdateApply(t *testing.T) {
	set := UpdateSpec{Attr: "P", Form: UpdateSet, Const: relation.Int(5)}
	if set.Apply(relation.Int(1)).AsInt() != 5 {
		t.Error("set")
	}
	scale := UpdateSpec{Attr: "P", Form: UpdateScale, Const: relation.Float(2)}
	if scale.Apply(relation.Float(3)).AsFloat() != 6 {
		t.Error("scale")
	}
	shift := UpdateSpec{Attr: "P", Form: UpdateShift, Const: relation.Int(10)}
	if shift.Apply(relation.Int(3)).AsInt() != 13 {
		t.Error("shift")
	}
}

func TestParseHowToFull(t *testing.T) {
	q, err := ParseHowTo(`
USE Tbl
WHEN Brand = 'Asus'
HOWTOUPDATE Price, Color
LIMIT 500 <= POST(Price) <= 800 AND L1(PRE(Price), POST(Price)) <= 400
  AND POST(Color) IN ('Red', 'Blue') AND UPDATES <= 2
TOMAXIMIZE AVG(POST(Rtng))
FOR Brand = 'Asus'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Attrs) != 2 || q.Attrs[1] != "Color" {
		t.Errorf("attrs = %v", q.Attrs)
	}
	if len(q.Limits) != 4 {
		t.Fatalf("limits = %v", q.Limits)
	}
	if q.Limits[0].Kind != LimitRange || q.Limits[0].Lo.AsFloat() != 500 || q.Limits[0].Hi.AsFloat() != 800 {
		t.Errorf("range = %v", q.Limits[0])
	}
	if q.Limits[1].Kind != LimitL1 || q.Limits[1].Theta != 400 {
		t.Errorf("l1 = %v", q.Limits[1])
	}
	if q.Limits[2].Kind != LimitIn || len(q.Limits[2].Vals) != 2 {
		t.Errorf("in = %v", q.Limits[2])
	}
	if q.Limits[3].Kind != LimitBudget || q.Limits[3].K != 2 {
		t.Errorf("budget = %v", q.Limits[3])
	}
	if !q.Maximize {
		t.Error("maximize")
	}
}

func TestParseHowToMinimizeAndSingleBounds(t *testing.T) {
	q, err := ParseHowTo(`USE T HOWTOUPDATE A LIMIT POST(A) >= 3 AND POST(A) <= 9 TOMINIMIZE SUM(POST(Y))`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Maximize {
		t.Error("should be minimize")
	}
	if q.Limits[0].Lo.AsFloat() != 3 || !q.Limits[0].Hi.IsNull() {
		t.Errorf("lower bound = %v", q.Limits[0])
	}
	if !q.Limits[1].Lo.IsNull() || q.Limits[1].Hi.AsFloat() != 9 {
		t.Errorf("upper bound = %v", q.Limits[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`USE`,
		`USE T`,
		`USE T OUTPUT COUNT(*)`,            // no UPDATE
		`USE T UPDATE(P) = 5`,              // no OUTPUT
		`USE T UPDATE(P) = 5 OUTPUT P`,     // output not aggregate
		`USE T HOWTOUPDATE P TOMAXIMIZE P`, // objective not aggregate
		`USE T HOWTOUPDATE P LIMIT PRE(P) <= 5 TOMAXIMIZE AVG(POST(Y))`, // PRE in LIMIT
		`USE (SELECT FROM T) UPDATE(P) = 5 OUTPUT COUNT(*)`,
		`USE T UPDATE(P) = 5 OUTPUT COUNT(*) FOR`,
		`USE T UPDATE(P) = 5 OUTPUT COUNT(*) trailing`,
		`USE T HOWTOUPDATE P LIMIT L1(PRE(A), POST(B)) <= 4 TOMAXIMIZE AVG(POST(Y))`, // L1 attr mismatch
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseL1AndPostPlacement pins where the grammar admits L1() and POST():
// L1 is a LIMIT constraint only, and WHEN selects on pre-update values, so
// POST() there is an error. Both errors name the construct, for what-if and
// how-to queries alike.
func TestParseL1AndPostPlacement(t *testing.T) {
	cases := []struct{ src, want string }{
		{`USE T UPDATE(S) = 3 OUTPUT COUNT(C = 1) FOR L1(PRE(S), POST(S)) >= 1`, "L1(PRE(A), POST(A)) is allowed only as a LIMIT constraint"},
		{`USE T UPDATE(S) = 3 OUTPUT COUNT(L1(PRE(S), POST(S)) >= 1)`, "L1(PRE(A), POST(A)) is allowed only as a LIMIT constraint"},
		{`USE T WHEN L1(PRE(S), POST(S)) < 1 UPDATE(S) = 3 OUTPUT COUNT(*)`, "L1(PRE(A), POST(A)) is allowed only as a LIMIT constraint"},
		{`USE T HOWTOUPDATE S TOMAXIMIZE AVG(POST(Y)) FOR L1(PRE(S), POST(S)) <= 2`, "L1(PRE(A), POST(A)) is allowed only as a LIMIT constraint"},
		{`USE T WHEN POST(S) = 3 UPDATE(S) = 3 OUTPUT COUNT(C = 1)`, "POST() is not allowed in WHEN"},
		{`USE T WHEN A = 1 AND NOT POST(T.S) IN (1, 2) UPDATE(S) = 3 OUTPUT COUNT(*)`, "POST() is not allowed in WHEN"},
		{`USE T WHEN POST(S) = 3 HOWTOUPDATE S TOMAXIMIZE AVG(POST(Y))`, "POST() is not allowed in WHEN"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", c.src, err, c.want)
		}
	}
	if _, err := ParseExpr(`L1(PRE(S), POST(S)) >= 1`); err == nil {
		t.Error("ParseExpr accepted L1 outside LIMIT")
	}
	// The same constructs stay legal where they belong: L1 in LIMIT, POST()
	// in FOR, OUTPUT and the objective, PRE() in WHEN.
	for _, src := range []string{
		`USE T WHEN PRE(S) = 1 HOWTOUPDATE S LIMIT L1(PRE(S), POST(S)) <= 2 TOMAXIMIZE AVG(POST(Y)) FOR POST(S) > 0`,
		`USE T WHEN PRE(S) = 1 UPDATE(S) = 3 OUTPUT COUNT(POST(C) = 1) FOR POST(S) = 3 AND PRE(S) < 3`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr(`a + b * c = d OR NOT e AND f < 2`)
	if err != nil {
		t.Fatal(err)
	}
	// OR binds loosest: ((a + (b*c)) = d) OR ((NOT e) AND (f < 2))
	or, ok := e.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", e)
	}
	if !strings.Contains(or.String(), "(b * c)") {
		t.Errorf("mul precedence: %s", or)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("right = %v", or.R)
	}
}

func TestParseChainedComparison(t *testing.T) {
	e, err := ParseExpr(`1 <= x <= 5`)
	if err != nil {
		t.Fatal(err)
	}
	want := "((1 <= x) AND (x <= 5))"
	if e.String() != want {
		t.Errorf("chained = %s, want %s", e, want)
	}
}

func TestParseInList(t *testing.T) {
	e, err := ParseExpr(`x IN (1, 2, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	in, ok := e.(*InList)
	if !ok || len(in.Vals) != 3 || in.Neg {
		t.Errorf("in = %v", e)
	}
	e2, err := ParseExpr(`x NOT IN ('a')`)
	if err != nil {
		t.Fatal(err)
	}
	if in2 := e2.(*InList); !in2.Neg {
		t.Error("NOT IN lost negation")
	}
}

func TestWhatIfStringFixedPoint(t *testing.T) {
	srcs := []string{
		`USE T UPDATE(P) = 5 OUTPUT COUNT(*)`,
		`USE T WHEN a = 1 UPDATE(P) = 1.5 * PRE(P) OUTPUT SUM(POST(Y)) FOR PRE(b) IN (1, 2)`,
		`USE T HOWTOUPDATE A, B LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Y = 1)`,
		`USE (SELECT K, AVG(V) AS M FROM T GROUP BY K) UPDATE(K) = 2 OUTPUT AVG(POST(M))`,
	}
	for _, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Errorf("reparse %q: %v", canon, err)
			continue
		}
		if q2.String() != canon {
			t.Errorf("not a fixed point:\n  %s\n  %s", canon, q2.String())
		}
	}
}

// Property: any generated small what-if query's canonical form is a parse
// fixed point.
func TestCanonicalFixedPointProperty(t *testing.T) {
	forms := []string{"= 3", "= 1.5 * PRE(P)", "= 2 + PRE(P)"}
	aggs := []string{"COUNT(*)", "AVG(POST(Y))", "SUM(POST(Y))", "COUNT(Y = 1)"}
	f := func(fi, ai uint8, hasWhen, hasFor bool) bool {
		src := "USE T "
		if hasWhen {
			src += "WHEN a = 1 "
		}
		src += "UPDATE(P) " + forms[int(fi)%len(forms)] + " OUTPUT " + aggs[int(ai)%len(aggs)]
		if hasFor {
			src += " FOR PRE(b) > 0"
		}
		q, err := Parse(src)
		if err != nil {
			return false
		}
		canon := q.String()
		q2, err := Parse(canon)
		return err == nil && q2.String() == canon
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWalkAndColRefs(t *testing.T) {
	e, err := ParseExpr(`PRE(a) = 1 AND (POST(b) > 2 OR c IN (1, d))`)
	if err != nil {
		t.Fatal(err)
	}
	refs := ColRefs(e)
	if len(refs) != 4 {
		t.Fatalf("refs = %v", refs)
	}
	times := map[string]Temporal{}
	for _, r := range refs {
		times[r.Name] = r.Time
	}
	if times["a"] != TimePre || times["b"] != TimePost || times["c"] != TimeDefault {
		t.Errorf("times = %v", times)
	}
	count := 0
	Walk(e, func(Expr) bool { count++; return true })
	if count < 8 {
		t.Errorf("walk visited %d nodes", count)
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	q, err := ParseWhatIf(`USE "Weird Table" UPDATE("Odd Col") = 5 OUTPUT COUNT(*)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Use.Table != "Weird Table" || q.Updates[0].Attr != "Odd Col" {
		t.Errorf("quoted idents = %v %v", q.Use.Table, q.Updates[0].Attr)
	}
}
