package plan

import (
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
		// Residual conjunct: evaluate its own AST on the rows still in the
		// set.
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

// rangeAccept says, per order operator, which results of Value.Compare(row,
// literal) — -1, 0, +1, indexed from 0 — keep the row.
var rangeAccept = [...][3]bool{
	OpLt: {true, false, false},
	OpLe: {true, true, false},
	OpGt: {false, false, true},
	OpGe: {false, true, true},
}

// applyPushed runs one columnar conjunct, narrowing inS. Every operator
// reduces to the same scan: decide once per distinct value (per code) whether
// rows holding it stay, then filter the rows through their codes. Codes are
// Value.Compare identity, so one decision per code is every row's decision.
// Equality, != and IN look the literal's code up; NULL rows carry NULL's own
// code, so a NULL literal in an IN list matches them and no other literal
// does — exactly Value.Equal. A range compares each code's value with the
// literal, NULL on either side deciding false — exactly sqlmini's comparison.
// It returns false only when the node's shape mismatches the compiled
// conjunct; the caller then evaluates the conjunct's AST residually.
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
			if !ok {
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
			accept := rangeAccept[c.Op] // by Compare's result + 1
			for code, cv := range col.Values {
				keep[code] = !cv.IsNull() && accept[cv.Compare(v)+1]
			}
		}
	}
	col.Narrow(keep, inS)
	return true
}
