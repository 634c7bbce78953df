package hyperql

import (
	"fmt"
	"strconv"
	"strings"

	"hyper/internal/relation"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks   []Token
	pos    int
	src    string
	inWhen bool // parsing WHEN, which reads pre-update values only
}

// Parse parses a full HypeR query (what-if or how-to).
func Parse(src string) (Query, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().String())
	}
	return q, nil
}

// ParseWhatIf parses src and requires a what-if query.
func ParseWhatIf(src string) (*WhatIf, error) { return parseAs[*WhatIf](src) }

// ParseHowTo parses src and requires a how-to query.
func ParseHowTo(src string) (*HowTo, error) { return parseAs[*HowTo](src) }

func parseAs[Q Query](src string) (Q, error) {
	q, err := Parse(src)
	if err != nil {
		var none Q
		return none, err
	}
	return As[Q](q)
}

// As returns q as the query kind Q (*WhatIf or *HowTo), or an error naming
// the kind it is.
func As[Q Query](q Query) (Q, error) {
	k, ok := q.(Q)
	if !ok {
		_, howTo := q.(*HowTo)
		kind := map[bool]string{false: "what-if", true: "how-to"}
		return k, fmt.Errorf("hyperql: expected a %s query, got a %s query", kind[!howTo], kind[howTo])
	}
	return k, nil
}

// SemanticError is a name in a well-formed query that the database it is
// bound to does not resolve, at the name's source offset: what binding
// reports, as a parse error reports bad syntax.
type SemanticError struct {
	Pos int
	Msg string
}

func (e *SemanticError) Error() string { return fmt.Sprintf("offset %d: %s", e.Pos, e.Msg) }

// ParseExpr parses a standalone predicate/expression (used by tests and by
// programmatic query construction).
func ParseExpr(src string) (Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().String())
	}
	return e, nil
}

func newParser(src string) (*Parser, error) {
	toks, err := NewLexer(src).Tokens()
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks, src: src}, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("hyperql: parse error at offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().String())
	}
	return nil
}

func (p *Parser) isOp(op string) bool {
	t := p.peek()
	return t.Kind == TokOp && t.Text == op
}

func (p *Parser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, found %q", op, p.peek().String())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, found %q", t.String())
	}
	p.pos++
	return t.Text, nil
}

// parseQuery dispatches to what-if or how-to based on the clause following
// the optional WHEN.
func (p *Parser) parseQuery() (Query, error) {
	use, err := p.parseUse()
	if err != nil {
		return nil, err
	}
	var when Expr
	if p.acceptKeyword("WHEN") {
		p.inWhen = true
		when, err = p.parseExpr()
		p.inWhen = false
		if err != nil {
			return nil, err
		}
	}
	switch {
	case p.isKeyword("UPDATE"):
		return p.parseWhatIfTail(use, when)
	case p.isKeyword("HOWTOUPDATE"):
		return p.parseHowToTail(use, when)
	default:
		return nil, p.errorf("expected UPDATE or HOWTOUPDATE, found %q", p.peek().String())
	}
}

func (p *Parser) parseUse() (*UseClause, error) {
	if err := p.expectKeyword("USE"); err != nil {
		return nil, err
	}
	if p.acceptOp("(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &UseClause{Select: sel}, nil
	}
	pos := p.peek().Pos
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &UseClause{Table: name, Pos: pos}, nil
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		pos := p.peek().Pos
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tr := TableRef{Name: name, Pos: pos}
		if p.acceptKeyword("AS") {
			tr.Alias, err = p.expectIdent()
			if err != nil {
				return nil, err
			}
		} else if p.peek().Kind == TokIdent {
			tr.Alias = p.next().Text
		}
		s.From = append(s.From, tr)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, c)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	var item SelectItem
	if ag, ok, err := p.tryParseAggregate(); err != nil {
		return item, err
	} else if ok {
		item.Expr = ag
	} else {
		c, err := p.parseColRef()
		if err != nil {
			return item, err
		}
		item.Expr = c
	}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

// tryParseAggregate parses AVG/SUM/COUNT '(' (expr | '*') ')' when present.
func (p *Parser) tryParseAggregate() (*Aggregate, bool, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, false, nil
	}
	var fn AggFunc
	switch t.Text {
	case "AVG":
		fn = AggAvg
	case "SUM":
		fn = AggSum
	case "COUNT":
		fn = AggCount
	default:
		return nil, false, nil
	}
	p.pos++
	if err := p.expectOp("("); err != nil {
		return nil, false, err
	}
	ag := &Aggregate{Func: fn, Pos: t.Pos}
	if p.acceptOp("*") {
		// COUNT(*)
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return nil, false, err
		}
		ag.Expr = e
	}
	if err := p.expectOp(")"); err != nil {
		return nil, false, err
	}
	return ag, true, nil
}

func (p *Parser) parseColRef() (*ColRef, error) {
	time := TimeDefault
	if p.acceptKeyword("PRE") {
		time = TimePre
	} else if p.isKeyword("POST") {
		if p.inWhen {
			return nil, p.errorf("POST() is not allowed in WHEN, which selects tuples by their pre-update values")
		}
		p.pos++
		time = TimePost
	}
	if time != TimeDefault {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		c, err := p.parseBareColRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		c.Time = time
		return c, nil
	}
	return p.parseBareColRef()
}

func (p *Parser) parseBareColRef() (*ColRef, error) {
	pos := p.peek().Pos
	a, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptOp(".") {
		b, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColRef{Table: a, Name: b, Pos: pos}, nil
	}
	return &ColRef{Name: a, Pos: pos}, nil
}

// Expression grammar, loosest binding first:
//
//	expr    := and { OR and }
//	and     := not { AND not }
//	not     := NOT not | cmp
//	cmp     := add [ (=|!=|<|<=|>|>=) add [ (<|<=|>|>=) add ] | [NOT] IN (...) ]
//	add     := mul { (+|-) mul }
//	mul     := unary { (*|/) unary }
//	unary   := - unary | primary
//	primary := literal | colref | PRE(colref) | POST(colref) | AGG(...) | ( expr )
//
// L1(PRE(A), POST(A)) is a LIMIT constraint only (parseLimitSpec), and WHEN
// selects tuples by their pre-update values, so POST() there is an error.
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// IN / NOT IN
	neg := false
	if p.isKeyword("NOT") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text == "IN" {
		p.pos += 2
		neg = true
	} else if p.acceptKeyword("IN") {
	} else {
		op, ok := p.peekCmpOp()
		if !ok {
			return l, nil
		}
		p.pos++
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		cmp := &Binary{Op: op, L: l, R: r}
		// Chained comparison: a <= x <= b desugars to (a <= x) AND (x <= b).
		if op2, ok2 := p.peekCmpOp(); ok2 {
			p.pos++
			r2, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: "AND", L: cmp, R: &Binary{Op: op2, L: r, R: r2}}, nil
		}
		return cmp, nil
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	in := &InList{X: l, Neg: neg}
	for {
		v, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		in.Vals = append(in.Vals, v)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) peekCmpOp() (string, bool) {
	t := p.peek()
	if t.Kind != TokOp {
		return "", false
	}
	switch t.Text {
	case "=", "!=", "<", "<=", ">", ">=":
		return t.Text, true
	}
	return "", false
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "+", L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "*", L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok && lit.Val.Kind().Numeric() {
			if lit.Val.Kind() == relation.KindInt {
				return &Literal{Val: relation.Int(-lit.Val.AsInt())}, nil
			}
			return &Literal{Val: relation.Float(-lit.Val.AsFloat())}, nil
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q: %v", t.Text, err)
			}
			return &Literal{Val: relation.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q: %v", t.Text, err)
		}
		return &Literal{Val: relation.Int(i)}, nil
	case TokString:
		p.pos++
		return &Literal{Val: relation.String(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.pos++
			return &Literal{Val: relation.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: relation.Bool(false)}, nil
		case "NULL":
			p.pos++
			return &Literal{Val: relation.Null}, nil
		case "PRE", "POST":
			return p.parseColRef()
		case "AVG", "SUM", "COUNT":
			ag, _, err := p.tryParseAggregate()
			return ag, err
		case "L1":
			return nil, p.errorf("L1(PRE(A), POST(A)) is allowed only as a LIMIT constraint")
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.Text)
	case TokIdent:
		return p.parseBareColRef()
	case TokOp:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.String())
}

// parseL1 parses L1(PRE(A), POST(A)) and returns PRE(A).
func (p *Parser) parseL1() (*ColRef, error) {
	if err := p.expectKeyword("L1"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	a, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(","); err != nil {
		return nil, err
	}
	b, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if a.Name != b.Name {
		return nil, p.errorf("L1 operands must name the same attribute, got %s and %s", a.Name, b.Name)
	}
	return a, nil
}

// parseWhatIfTail parses UPDATE...OUTPUT...FOR after USE/WHEN.
func (p *Parser) parseWhatIfTail(use *UseClause, when Expr) (*WhatIf, error) {
	q := &WhatIf{Use: use, When: when}
	for {
		u, err := p.parseUpdateSpec()
		if err != nil {
			return nil, err
		}
		q.Updates = append(q.Updates, *u)
		if p.isKeyword("AND") && p.pos+1 < len(p.toks) &&
			p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text == "UPDATE" {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectKeyword("OUTPUT"); err != nil {
		return nil, err
	}
	ag, ok, err := p.tryParseAggregate()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, p.errorf("OUTPUT requires an aggregate (AVG/SUM/COUNT), found %q", p.peek().String())
	}
	q.Output = ag
	if p.acceptKeyword("FOR") {
		f, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.For = f
	}
	return q, nil
}

// parseUpdateSpec parses UPDATE(B) = const | const*PRE(B) | const+PRE(B)
// (also accepting the commuted PRE(B)*const / PRE(B)+const forms).
func (p *Parser) parseUpdateSpec() (*UpdateSpec, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	pos := p.peek().Pos
	attr, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	u, err := classifyUpdate(attr, rhs)
	if err != nil {
		return nil, err
	}
	u.Pos = pos
	return u, nil
}

// classifyUpdate maps the parsed RHS expression onto one of the three update
// forms of Definition 2.
func classifyUpdate(attr string, rhs Expr) (*UpdateSpec, error) {
	bad := fmt.Errorf("hyperql: UPDATE(%s) right-hand side must be <const>, <const>*PRE(%s), or <const>+PRE(%s), got %s", attr, attr, attr, rhs)
	switch x := rhs.(type) {
	case *Literal:
		return &UpdateSpec{Attr: attr, Form: UpdateSet, Const: x.Val}, nil
	case *Binary:
		var form UpdateForm
		switch x.Op {
		case "*":
			form = UpdateScale
		case "+":
			form = UpdateShift
		default:
			return nil, bad
		}
		lit, col := x.L, x.R
		if _, ok := lit.(*Literal); !ok {
			lit, col = x.R, x.L
		}
		l, ok := lit.(*Literal)
		if !ok {
			return nil, bad
		}
		c, ok := col.(*ColRef)
		if !ok || c.Time == TimePost {
			return nil, bad
		}
		if c.Name != attr {
			return nil, fmt.Errorf("hyperql: UPDATE(%s) references PRE(%s); the update function must be over the updated attribute", attr, c.Name)
		}
		return &UpdateSpec{Attr: attr, Form: form, Const: l.Val}, nil
	default:
		return nil, bad
	}
}

// parseHowToTail parses HOWTOUPDATE...LIMIT...TOMAXIMIZE/TOMINIMIZE...FOR.
func (p *Parser) parseHowToTail(use *UseClause, when Expr) (*HowTo, error) {
	if err := p.expectKeyword("HOWTOUPDATE"); err != nil {
		return nil, err
	}
	q := &HowTo{Use: use, When: when}
	for {
		q.AttrPos = append(q.AttrPos, p.peek().Pos)
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		q.Attrs = append(q.Attrs, a)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		for {
			spec, err := p.parseLimitSpec()
			if err != nil {
				return nil, err
			}
			q.Limits = append(q.Limits, *spec)
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	switch {
	case p.acceptKeyword("TOMAXIMIZE"):
		q.Maximize = true
	case p.acceptKeyword("TOMINIMIZE"):
		q.Maximize = false
	default:
		return nil, p.errorf("expected TOMAXIMIZE or TOMINIMIZE, found %q", p.peek().String())
	}
	ag, ok, err := p.tryParseAggregate()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, p.errorf("objective requires an aggregate (AVG/SUM/COUNT), found %q", p.peek().String())
	}
	q.Obj = ag
	if p.acceptKeyword("FOR") {
		f, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.For = f
	}
	return q, nil
}

// parseLimitSpec parses one constraint of the LIMIT clause.
func (p *Parser) parseLimitSpec() (*LimitSpec, error) {
	// L1(PRE(A), POST(A)) <= theta
	if p.isKeyword("L1") {
		c, err := p.parseL1()
		if err != nil {
			return nil, err
		}
		if !p.acceptOp("<=") && !p.acceptOp("<") {
			return nil, p.errorf("L1 constraint requires <= bound")
		}
		v, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		return &LimitSpec{Kind: LimitL1, Attr: c.Name, Pos: c.Pos, Theta: v.AsFloat()}, nil
	}
	// UPDATES <= k
	if p.acceptKeyword("UPDATES") {
		if !p.acceptOp("<=") && !p.acceptOp("<") {
			return nil, p.errorf("UPDATES constraint requires <= bound")
		}
		v, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		return &LimitSpec{Kind: LimitBudget, K: int(v.AsInt())}, nil
	}
	// lo <= POST(A) [<= hi]
	if p.peek().Kind == TokNumber || (p.isOp("-") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokNumber) {
		lo, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		op1 := p.peek().Text
		if !p.acceptOp("<=") && !p.acceptOp("<") {
			return nil, p.errorf("expected <= after range lower bound, found %q", op1)
		}
		c, err := p.parsePostAttr()
		if err != nil {
			return nil, err
		}
		spec := &LimitSpec{Kind: LimitRange, Attr: c.Name, Pos: c.Pos, Lo: lo, Hi: relation.Null}
		if p.acceptOp("<=") || p.acceptOp("<") {
			hi, err := p.parseLiteralValue()
			if err != nil {
				return nil, err
			}
			spec.Hi = hi
		}
		return spec, nil
	}
	// POST(A) <= hi | POST(A) >= lo | POST(A) IN (...)
	c, err := p.parsePostAttr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptOp("<="), p.acceptOp("<"):
		hi, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		return &LimitSpec{Kind: LimitRange, Attr: c.Name, Pos: c.Pos, Lo: relation.Null, Hi: hi}, nil
	case p.acceptOp(">="), p.acceptOp(">"):
		lo, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		return &LimitSpec{Kind: LimitRange, Attr: c.Name, Pos: c.Pos, Lo: lo, Hi: relation.Null}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		spec := &LimitSpec{Kind: LimitIn, Attr: c.Name, Pos: c.Pos}
		for {
			v, err := p.parseLiteralValue()
			if err != nil {
				return nil, err
			}
			spec.Vals = append(spec.Vals, v)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return spec, nil
	default:
		return nil, p.errorf("expected <=, >=, or IN in LIMIT constraint, found %q", p.peek().String())
	}
}

// parsePostAttr parses POST(A) (or a bare attribute, treated as POST).
func (p *Parser) parsePostAttr() (*ColRef, error) {
	c, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	if c.Time == TimePre {
		return nil, p.errorf("LIMIT constrains post-update values; use POST(%s)", c.Name)
	}
	return c, nil
}

// parseLiteralValue parses a literal (with optional leading minus).
func (p *Parser) parseLiteralValue() (relation.Value, error) {
	e, err := p.parseUnary()
	if err != nil {
		return relation.Null, err
	}
	lit, ok := e.(*Literal)
	if !ok {
		return relation.Null, p.errorf("expected a literal value, found %s", e)
	}
	return lit.Val, nil
}
