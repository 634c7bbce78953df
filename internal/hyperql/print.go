package hyperql

import (
	"fmt"
	"hash/fnv"
	"strings"

	"hyper/internal/relation"
)

// printer writes the HypeRQL text of a syntax tree; every String() and Shape
// are this one walk. Unmasked it writes the canonical form, which re-parses
// to the same tree. Masked it writes the shape and differs in three places
// only: a literal or LIMIT constant prints '?' (an IN list keeps one '?' per
// value, because arity drives the DNF expansion a planner would care about),
// and an update prints "UPDATE(A) <form> ?".
type printer struct {
	strings.Builder
	mask bool
}

func (p *printer) ws(ss ...string) {
	for _, s := range ss {
		p.WriteString(s)
	}
}

// sep writes first before element 0 of a list and rest before every other.
func (p *printer) sep(i int, first, rest string) {
	if i == 0 {
		p.WriteString(first)
	} else {
		p.WriteString(rest)
	}
}

// literal writes a constant so that it parses back: a string is quoted, with
// embedded quotes doubled.
func (p *printer) literal(v relation.Value) {
	if !p.mask && v.Kind() == relation.KindString {
		p.ws("'", strings.ReplaceAll(v.AsString(), "'", "''"), "'")
		return
	}
	p.value(v)
}

// value writes a constant bare, as update constants and LIMIT bounds print.
func (p *printer) value(v relation.Value) {
	if p.mask {
		p.WriteString("?")
	} else {
		p.WriteString(v.String())
	}
}

func (p *printer) expr(e Expr) {
	switch x := e.(type) {
	case nil:
		p.WriteString("*")
	case *Literal:
		p.literal(x.Val)
	case *ColRef:
		if x.Time != TimeDefault {
			p.ws(x.Time.String(), "(")
		}
		if x.Table != "" {
			p.ws(x.Table, ".")
		}
		p.WriteString(x.Name)
		if x.Time != TimeDefault {
			p.WriteString(")")
		}
	case *Binary:
		p.WriteString("(")
		p.expr(x.L)
		p.ws(" ", x.Op, " ")
		p.expr(x.R)
		p.WriteString(")")
	case *Unary:
		p.ws("(", x.Op)
		if x.Op == "NOT" {
			p.WriteString(" ")
		}
		p.expr(x.X)
		p.WriteString(")")
	case *InList:
		p.WriteString("(")
		p.expr(x.X)
		if x.Neg {
			p.WriteString(" NOT")
		}
		p.WriteString(" IN (")
		for i, v := range x.Vals {
			p.sep(i, "", ", ")
			p.expr(v)
		}
		p.WriteString("))")
	case *Aggregate:
		p.ws(string(x.Func), "(")
		p.expr(x.Expr)
		p.WriteString(")")
	default:
		fmt.Fprintf(p, "expr(%T)", e)
	}
}

func (p *printer) use(u *UseClause) {
	switch {
	case u == nil:
		p.WriteString("USE ?")
	case u.Select == nil:
		p.ws("USE ", u.Table)
	default:
		p.WriteString("USE (")
		p.selectStmt(u.Select)
		p.WriteString(")")
	}
}

func (p *printer) selectStmt(s *SelectStmt) {
	p.WriteString("SELECT ")
	for i, it := range s.Items {
		p.sep(i, "", ", ")
		p.item(it)
	}
	p.WriteString(" FROM ")
	for i, t := range s.From {
		p.sep(i, "", ", ")
		p.table(t)
	}
	p.clause(" WHERE ", s.Where)
	for i, g := range s.GroupBy {
		p.sep(i, " GROUP BY ", ", ")
		p.expr(g)
	}
}

func (p *printer) item(it SelectItem) {
	p.expr(it.Expr)
	if it.Alias != "" {
		p.ws(" AS ", it.Alias)
	}
}

func (p *printer) table(t TableRef) {
	p.WriteString(t.Name)
	if t.Alias != "" {
		p.ws(" AS ", t.Alias)
	}
}

// clause writes kw and e when e is present.
func (p *printer) clause(kw string, e Expr) {
	if e != nil {
		p.WriteString(kw)
		p.expr(e)
	}
}

func (p *printer) update(u UpdateSpec) {
	p.ws("UPDATE(", u.Attr, ")")
	if p.mask {
		p.ws(" ", u.Form.String(), " ?")
		return
	}
	p.WriteString(" = ")
	switch u.Form {
	case UpdateScale:
		p.value(u.Const)
		p.ws(" * PRE(", u.Attr, ")")
	case UpdateShift:
		p.value(u.Const)
		p.ws(" + PRE(", u.Attr, ")")
	default:
		p.literal(u.Const)
	}
}

func (p *printer) limit(l LimitSpec) {
	post := "POST(" + l.Attr + ")"
	switch l.Kind {
	case LimitL1:
		p.ws("L1(PRE(", l.Attr, "), ", post, ") <= ")
		p.value(relation.Float(l.Theta))
	case LimitIn:
		p.ws(post, " IN (")
		for i, v := range l.Vals {
			p.sep(i, "", ", ")
			p.literal(v)
		}
		p.WriteString(")")
	case LimitBudget:
		p.WriteString("UPDATES <= ")
		p.value(relation.Int(int64(l.K)))
	default:
		if !l.Lo.IsNull() {
			p.value(l.Lo)
			p.WriteString(" <= ")
		}
		p.WriteString(post)
		if l.Lo.IsNull() || !l.Hi.IsNull() {
			p.WriteString(" <= ")
			p.value(l.Hi)
		}
	}
}

func (p *printer) query(q Query) {
	switch x := q.(type) {
	case *WhatIf:
		p.use(x.Use)
		p.clause(" WHEN ", x.When)
		for i, u := range x.Updates {
			p.sep(i, " ", " AND ")
			p.update(u)
		}
		p.clause(" OUTPUT ", x.Output)
		p.clause(" FOR ", x.For)
	case *HowTo:
		p.use(x.Use)
		p.clause(" WHEN ", x.When)
		p.ws(" HOWTOUPDATE ", strings.Join(x.Attrs, ", "))
		for i, l := range x.Limits {
			p.sep(i, " LIMIT ", " AND ")
			p.limit(l)
		}
		if x.Maximize {
			p.clause(" TOMAXIMIZE ", x.Obj)
		} else {
			p.clause(" TOMINIMIZE ", x.Obj)
		}
		p.clause(" FOR ", x.For)
	default:
		fmt.Fprintf(p, "query(%T)", q)
	}
}

// text is the unmasked text of one node: what every String() returns.
func text[T any](walk func(*printer, T), node T) string {
	var p printer
	walk(&p, node)
	return p.String()
}

// Shape renders the normalized structural form of a parsed query: the
// canonical text with every literal constant masked. Two queries share a
// Shape exactly when they differ only in constants, which is the identity a
// plan cache keys artifacts by and the usage table aggregates cost vectors
// under.
func Shape(q Query) string {
	p := printer{mask: true}
	p.query(q)
	return p.String()
}

// ShapeExpr renders e with every literal masked: the text of one expression
// inside Shape, and of a conjunct in a shape-keyed plan's EXPLAIN, which must
// not leak the constants of whichever query compiled it.
func ShapeExpr(e Expr) string {
	p := printer{mask: true}
	p.expr(e)
	return p.String()
}

// Fingerprint hashes extra (the serving layer passes the session-schema
// component) together with the query kind and Shape into the 16-hex-digit
// shape fingerprint the usage table and the plan cache key by.
func Fingerprint(extra string, q Query) string {
	h := fnv.New64a()
	h.Write([]byte(extra))
	h.Write([]byte{0})
	switch q.(type) {
	case *WhatIf:
		h.Write([]byte("whatif"))
	case *HowTo:
		h.Write([]byte("howto"))
	}
	h.Write([]byte{0})
	h.Write([]byte(Shape(q)))
	return fmt.Sprintf("%016x", h.Sum64())
}
