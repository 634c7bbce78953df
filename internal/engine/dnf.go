package engine

import (
	"fmt"
	"sort"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// disjunct is one disjoint component of a normalized FOR predicate
// (Appendix A.2.1): a conjunction of pre-update conditions, which are
// deterministic per tuple, and post-update conditions, which are events
// under the post-update distribution.
type disjunct struct {
	pre  []hyperql.Expr
	post []hyperql.Expr
}

// normalizeFor rewrites an arbitrary Boolean FOR predicate into a
// disjunction of (pre ∧ post) conjunctions: negation normal form, then DNF
// distribution (A.2.3), then domain expansion of literals mixing PRE and
// POST references (A.2.4). A nil predicate yields a single always-true
// disjunct.
func normalizeFor(e hyperql.Expr, view *relation.Relation, maxDisjuncts, maxDomain int) ([]disjunct, error) {
	if e == nil {
		return []disjunct{{}}, nil
	}
	n := nnf(e, false)
	lits, err := dnf(n, maxDisjuncts)
	if err != nil {
		return nil, err
	}
	var out []disjunct
	for _, conj := range lits {
		ds, err := classifyConjunct(conj, view, maxDisjuncts, maxDomain)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
		if len(out) > maxDisjuncts {
			return nil, fmt.Errorf("engine: FOR predicate expands to more than %d disjuncts", maxDisjuncts)
		}
	}
	return out, nil
}

// nnf pushes negations down to literals, flipping comparison operators.
func nnf(e hyperql.Expr, neg bool) hyperql.Expr {
	switch x := e.(type) {
	case *hyperql.Unary:
		if x.Op == "NOT" {
			return nnf(x.X, !neg)
		}
	case *hyperql.Binary:
		switch x.Op {
		case "AND":
			op := "AND"
			if neg {
				op = "OR"
			}
			return &hyperql.Binary{Op: op, L: nnf(x.L, neg), R: nnf(x.R, neg)}
		case "OR":
			op := "OR"
			if neg {
				op = "AND"
			}
			return &hyperql.Binary{Op: op, L: nnf(x.L, neg), R: nnf(x.R, neg)}
		case "=", "!=", "<", "<=", ">", ">=":
			if neg {
				return &hyperql.Binary{Op: flipCmp(x.Op), L: x.L, R: x.R}
			}
			return x
		}
	case *hyperql.InList:
		if neg {
			return &hyperql.InList{X: x.X, Vals: x.Vals, Neg: !x.Neg}
		}
		return x
	case *hyperql.Literal:
		if neg {
			return &hyperql.Literal{Val: relation.Bool(!x.Val.AsBool())}
		}
		return x
	}
	if neg {
		return &hyperql.Unary{Op: "NOT", X: e}
	}
	return e
}

func flipCmp(op string) string {
	switch op {
	case "=":
		return "!="
	case "!=":
		return "="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	}
	return op
}

// dnf distributes AND over OR, returning a list of conjunctions (each a list
// of literals).
func dnf(e hyperql.Expr, maxDisjuncts int) ([][]hyperql.Expr, error) {
	switch x := e.(type) {
	case *hyperql.Binary:
		switch x.Op {
		case "OR":
			l, err := dnf(x.L, maxDisjuncts)
			if err != nil {
				return nil, err
			}
			r, err := dnf(x.R, maxDisjuncts)
			if err != nil {
				return nil, err
			}
			out := append(l, r...)
			if len(out) > maxDisjuncts {
				return nil, fmt.Errorf("engine: FOR predicate expands to more than %d disjuncts", maxDisjuncts)
			}
			return out, nil
		case "AND":
			l, err := dnf(x.L, maxDisjuncts)
			if err != nil {
				return nil, err
			}
			r, err := dnf(x.R, maxDisjuncts)
			if err != nil {
				return nil, err
			}
			if len(l)*len(r) > maxDisjuncts {
				return nil, fmt.Errorf("engine: FOR predicate expands to more than %d disjuncts", maxDisjuncts)
			}
			var out [][]hyperql.Expr
			for _, a := range l {
				for _, b := range r {
					conj := make([]hyperql.Expr, 0, len(a)+len(b))
					conj = append(conj, a...)
					conj = append(conj, b...)
					out = append(out, conj)
				}
			}
			return out, nil
		}
	}
	return [][]hyperql.Expr{{e}}, nil
}

// literalTime classifies a literal by the temporal references it contains.
func literalTime(e hyperql.Expr) (hasPre, hasPost bool) {
	for _, c := range hyperql.ColRefs(e) {
		if c.Time == hyperql.TimePost {
			hasPost = true
		} else {
			// FOR defaults to Pre (Section 3.1).
			hasPre = true
		}
	}
	return
}

// classifyConjunct splits a conjunction of literals into pre and post parts,
// expanding mixed literals over the observed domain of their Pre attribute
// (A.2.4). The expansion turns one mixed literal into |Dom| disjuncts of the
// form (Pre(A)=a ∧ post-literal[A:=a]).
func classifyConjunct(conj []hyperql.Expr, view *relation.Relation, maxDisjuncts, maxDomain int) ([]disjunct, error) {
	base := disjunct{}
	var mixed []hyperql.Expr
	for _, lit := range conj {
		hasPre, hasPost := literalTime(lit)
		switch {
		case hasPre && hasPost:
			mixed = append(mixed, lit)
		case hasPost:
			base.post = append(base.post, lit)
		default:
			base.pre = append(base.pre, lit)
		}
	}
	out := []disjunct{base}
	for _, lit := range mixed {
		// Collect the distinct Pre attributes referenced.
		attrs := map[string]bool{}
		for _, c := range hyperql.ColRefs(lit) {
			if c.Time != hyperql.TimePost {
				attrs[c.Name] = true
			}
		}
		if len(attrs) != 1 {
			return nil, fmt.Errorf("engine: FOR literal %s mixes POST with %d PRE attributes; only one is supported", lit, len(attrs))
		}
		var attr string
		for a := range attrs {
			attr = a
		}
		dom := view.Domain(attr)
		if len(dom) > maxDomain {
			return nil, fmt.Errorf("engine: FOR literal %s requires expanding PRE(%s) over %d values (limit %d); discretize the attribute first",
				lit, attr, len(dom), maxDomain)
		}
		var next []disjunct
		for _, d := range out {
			for _, a := range dom {
				nd := disjunct{
					pre:  append(append([]hyperql.Expr(nil), d.pre...), eqLiteral(attr, a)),
					post: append(append([]hyperql.Expr(nil), d.post...), substPre(lit, attr, a)),
				}
				next = append(next, nd)
			}
		}
		if len(next) > maxDisjuncts {
			return nil, fmt.Errorf("engine: FOR predicate expands to more than %d disjuncts", maxDisjuncts)
		}
		out = next
	}
	return out, nil
}

func eqLiteral(attr string, v relation.Value) hyperql.Expr {
	return &hyperql.Binary{Op: "=",
		L: &hyperql.ColRef{Name: attr, Time: hyperql.TimePre},
		R: &hyperql.Literal{Val: v}}
}

// substPre deep-copies e replacing PRE/default references to attr with the
// constant v, leaving POST references intact.
func substPre(e hyperql.Expr, attr string, v relation.Value) hyperql.Expr {
	switch x := e.(type) {
	case *hyperql.ColRef:
		if x.Name == attr && x.Time != hyperql.TimePost {
			return &hyperql.Literal{Val: v}
		}
		return x
	case *hyperql.Binary:
		return &hyperql.Binary{Op: x.Op, L: substPre(x.L, attr, v), R: substPre(x.R, attr, v)}
	case *hyperql.Unary:
		return &hyperql.Unary{Op: x.Op, X: substPre(x.X, attr, v)}
	case *hyperql.InList:
		vals := make([]hyperql.Expr, len(x.Vals))
		for i, ve := range x.Vals {
			vals[i] = substPre(ve, attr, v)
		}
		return &hyperql.InList{X: substPre(x.X, attr, v), Vals: vals, Neg: x.Neg}
	default:
		return e
	}
}

// eventKey builds a canonical cache key for a conjunction of post literals.
func eventKey(lits []hyperql.Expr) string {
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = l.String()
	}
	sort.Strings(parts)
	key := ""
	for _, p := range parts {
		key += p + "&"
	}
	return key
}
