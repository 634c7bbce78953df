package plan

import (
	"math"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
	"hyper/internal/sqlmini"
)

// wholeTree is the degenerate program: the entire WHEN tree as one residual
// conjunct.
var wholeTree = []Conjunct{{Op: OpResidual}}

// Apply executes the compiled WHEN program over rel, writing the update-set
// mask into inS (len rel.Len()), re-binding literal values from when's AST
// at each conjunct's recorded position. It returns the number of conjuncts
// that actually ran as columnar scans. A fallback plan — or one whose
// conjunct count does not match when, which only a fingerprint collision
// could produce — runs the whole tree as a single residual conjunct in row
// order: that is the reference row loop itself, so it returns the first
// failing row's error and none on a zero-row relation. Validated plans
// cannot fail.
func (p *WhatIfPlan) Apply(when hyperql.Expr, rel *relation.Relation, inS []bool) (int, error) {
	for i := range inS {
		inS[i] = true
	}
	if when == nil {
		return 0, nil
	}
	conjs, prog := sqlmini.SplitAnd(when), p.Conjuncts
	if p.Fallback || len(conjs) != len(prog) {
		conjs, prog = []hyperql.Expr{when}, wholeTree
	}
	pushed := 0
	for _, c := range prog {
		node := conjs[c.Pos]
		if c.Op != OpResidual && applyPushed(c, node, rel.Coded(c.colIdx), inS) {
			pushed++
			continue
		}
		// Residual (or guard-demoted) conjunct: evaluate its own AST on the
		// rows still in the set.
		env := sqlmini.RowEnv{Rel: rel}
		for i := range inS {
			if !inS[i] {
				continue
			}
			env.Row = i
			ok, err := sqlmini.EvalBool(node, env)
			if err != nil {
				return pushed, err
			}
			inS[i] = ok
		}
	}
	return pushed, nil
}

// litGuard reports whether interned-code identity against this column is
// exact for literal v: numeric literals must be finite, below the
// key-exactness threshold, and the column NaN-free (NaN compares equal to
// every number under Value.Compare, but its canonical key is distinct).
// Non-numeric literals are always exact — cross-kind comparisons never
// report equality and never collide on keys.
func litGuard(v relation.Value, colNaN bool) bool {
	if !v.Kind().Numeric() {
		return true
	}
	f := v.AsFloat()
	return !math.IsNaN(f) && math.Abs(f) < maxExactAbs && !colNaN
}

// applyPushed runs one columnar conjunct, narrowing inS. Every operator
// reduces to the same scan: decide once per distinct value (per code) whether
// rows holding it stay, then filter the rows through their codes. NULL rows
// carry NULL's own code, so a NULL literal in an IN list matches them and no
// other literal does — exactly Value.Equal. It returns false when the node's
// shape mismatches the compiled conjunct or the column or a bound literal
// violates an exactness guard; the caller then evaluates the conjunct's AST
// residually, which is always exact.
func applyPushed(c Conjunct, node hyperql.Expr, col *relation.CodedColumn, inS []bool) bool {
	keep := make([]bool, len(col.Values))
	switch c.Op {
	case OpIn:
		in, ok := node.(*hyperql.InList)
		if !ok || in.Neg != c.Neg {
			return false
		}
		if c.Neg {
			for code := range keep {
				keep[code] = true
			}
		}
		for _, ve := range in.Vals {
			lit, ok := ve.(*hyperql.Literal)
			if !ok || !litGuard(lit.Val, col.HasNaN) {
				return false
			}
			// Values absent from the column's code space can never match.
			if code, present := col.Code(lit.Val); present {
				keep[code] = !c.Neg
			}
		}
	default:
		b, ok := node.(*hyperql.Binary)
		if !ok {
			return false
		}
		litSide := b.R
		if c.Flip {
			litSide = b.L
		}
		lit, ok := litSide.(*hyperql.Literal)
		if !ok {
			return false
		}
		v := lit.Val
		switch {
		case v.IsNull():
			// Any comparison against NULL is false for every row.
		case !litGuard(v, col.HasNaN):
			return false
		case c.Op == OpEq:
			if code, present := col.Code(v); present {
				keep[code] = true
			}
		case c.Op == OpNe:
			for code, cv := range col.Values {
				keep[code] = !cv.IsNull()
			}
			if code, present := col.Code(v); present {
				keep[code] = false
			}
		default: // OpLt, OpLe, OpGt, OpGe
			// Cross-kind ordering follows kind ranks, not magnitudes; leave
			// it to the exact residual path.
			if !v.Kind().Numeric() || !rangeExact(col) {
				return false
			}
			f := v.AsFloat()
			for code, cv := range col.Values {
				x := cv.AsFloat() // NaN for NULL: every comparison is false
				switch c.Op {
				case OpLt:
					keep[code] = x < f
				case OpLe:
					keep[code] = x <= f
				case OpGt:
					keep[code] = x > f
				default:
					keep[code] = x >= f
				}
			}
		}
	}
	col.Narrow(keep, inS)
	return true
}
