package hyperql

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Shape renders the normalized structural form of a parsed query: the
// canonical clause layout with every literal constant replaced by '?'
// (prepared-statement style — an IN list keeps one '?' per value, so list
// arity stays structural, because arity drives the DNF expansion a planner
// would care about). Two queries share a Shape exactly when they differ only
// in constants, which is the identity a plan cache can key artifacts by and
// the identity the usage table aggregates cost vectors under.
func Shape(q Query) string {
	var b strings.Builder
	switch x := q.(type) {
	case *WhatIf:
		shapeUse(&b, x.Use)
		if x.When != nil {
			b.WriteString(" WHEN ")
			shapeExpr(&b, x.When)
		}
		for i, u := range x.Updates {
			if i == 0 {
				b.WriteString(" ")
			} else {
				b.WriteString(" AND ")
			}
			fmt.Fprintf(&b, "UPDATE(%s) %s ?", u.Attr, u.Form)
		}
		b.WriteString(" OUTPUT ")
		shapeExpr(&b, x.Output)
		if x.For != nil {
			b.WriteString(" FOR ")
			shapeExpr(&b, x.For)
		}
	case *HowTo:
		shapeUse(&b, x.Use)
		if x.When != nil {
			b.WriteString(" WHEN ")
			shapeExpr(&b, x.When)
		}
		b.WriteString(" HOWTOUPDATE ")
		b.WriteString(strings.Join(x.Attrs, ", "))
		for i, l := range x.Limits {
			if i == 0 {
				b.WriteString(" LIMIT ")
			} else {
				b.WriteString(" AND ")
			}
			shapeLimit(&b, l)
		}
		if x.Maximize {
			b.WriteString(" TOMAXIMIZE ")
		} else {
			b.WriteString(" TOMINIMIZE ")
		}
		shapeExpr(&b, x.Obj)
		if x.For != nil {
			b.WriteString(" FOR ")
			shapeExpr(&b, x.For)
		}
	default:
		fmt.Fprintf(&b, "query(%T)", q)
	}
	return b.String()
}

// Fingerprint hashes extra (the serving layer passes the session-schema
// component) together with the query kind and Shape into the 16-hex-digit
// shape fingerprint the usage table and a future plan cache key by.
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

func shapeUse(b *strings.Builder, u *UseClause) {
	if u == nil {
		b.WriteString("USE ?")
		return
	}
	if u.Select == nil {
		b.WriteString("USE " + u.Table)
		return
	}
	s := u.Select
	b.WriteString("USE (SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		shapeExpr(b, it.Expr)
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		shapeExpr(b, s.Where)
	}
	for i, g := range s.GroupBy {
		if i == 0 {
			b.WriteString(" GROUP BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(g.String())
	}
	b.WriteString(")")
}

// ShapeExpr renders e with every literal replaced by '?': the text of one
// expression inside Shape, and of a conjunct in a shape-keyed plan's EXPLAIN,
// which must not leak the constants of whichever query compiled it.
func ShapeExpr(e Expr) string {
	var b strings.Builder
	shapeExpr(&b, e)
	return b.String()
}

// shapeExpr mirrors the Expr String() renderings with every Literal as '?'.
// SelectStmt internals and list values are traversed here explicitly — Walk
// does not descend into them.
func shapeExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		b.WriteString("*")
	case *Literal:
		b.WriteString("?")
	case *ColRef:
		b.WriteString(x.String())
	case *Binary:
		b.WriteString("(")
		shapeExpr(b, x.L)
		b.WriteString(" " + x.Op + " ")
		shapeExpr(b, x.R)
		b.WriteString(")")
	case *Unary:
		if x.Op == "NOT" {
			b.WriteString("(NOT ")
			shapeExpr(b, x.X)
			b.WriteString(")")
		} else {
			b.WriteString("(" + x.Op)
			shapeExpr(b, x.X)
			b.WriteString(")")
		}
	case *InList:
		b.WriteString("(")
		shapeExpr(b, x.X)
		if x.Neg {
			b.WriteString(" NOT IN (")
		} else {
			b.WriteString(" IN (")
		}
		for i := range x.Vals {
			if i > 0 {
				b.WriteString(", ")
			}
			shapeExpr(b, x.Vals[i])
		}
		b.WriteString("))")
	case *Aggregate:
		b.WriteString(string(x.Func) + "(")
		shapeExpr(b, x.Expr)
		b.WriteString(")")
	case *L1Dist:
		b.WriteString(x.String())
	default:
		b.WriteString(fmt.Sprintf("expr(%T)", e))
	}
}

func shapeLimit(b *strings.Builder, l LimitSpec) {
	switch l.Kind {
	case LimitL1:
		fmt.Fprintf(b, "L1(PRE(%s), POST(%s)) <= ?", l.Attr, l.Attr)
	case LimitIn:
		fmt.Fprintf(b, "POST(%s) IN (%s)", l.Attr,
			strings.TrimSuffix(strings.Repeat("?, ", len(l.Vals)), ", "))
	case LimitBudget:
		b.WriteString("UPDATES <= ?")
	default:
		switch {
		case l.Lo.IsNull():
			fmt.Fprintf(b, "POST(%s) <= ?", l.Attr)
		case l.Hi.IsNull():
			fmt.Fprintf(b, "? <= POST(%s)", l.Attr)
		default:
			fmt.Fprintf(b, "? <= POST(%s) <= ?", l.Attr)
		}
	}
}
