// Package plan is the cost-based planning layer between the hyperql AST and
// the engine, and the one place a WHEN expression and a relation become an
// update-set mask: Compile builds a pushdown program — a cost-ordered
// sequence of conjunct filters where equality, IN and range predicates are
// decided once per distinct column value and applied through the relation's
// shared per-column codes (relation.Relation.Coded) — and Apply runs it. A
// Cache keeps compiled, literal-free plans in a bounded LRU keyed by the
// query's shape fingerprint plus the database schema signature; a nil one
// compiles per call into the same program. Literals are re-bound from the
// live query on every execution, so a cached plan never pins constants.
//
// The planner's contract is bit-identity: a program must produce exactly the
// update set, and exactly the error, of a row-at-a-time sqlmini.EvalBool loop
// over the whole tree (kept only as the oracle in tests). A plan only
// reorders or pushes conjuncts when the whole WHEN tree is provably
// error-free (every column resolves, only evaluable node types appear);
// otherwise it marks itself a fallback and runs the whole tree as one
// residual conjunct in row order — that loop itself, error behaviour
// included. A pushed conjunct is exact on any column because code identity is
// relation.Value.Compare equality: values share a code exactly when Compare
// finds them equal, so deciding a predicate once per code decides it for
// every row holding the code.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
	"hyper/internal/sqlmini"
)

// Op classifies one WHEN conjunct of a pushdown program.
type Op uint8

// Conjunct operators. OpResidual evaluates the conjunct's own AST on the
// rows surviving earlier filters; the rest are columnar scans.
const (
	OpResidual Op = iota
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIn
)

// String names the operator for EXPLAIN output.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "eq"
	case OpNe:
		return "ne"
	case OpLt:
		return "lt"
	case OpLe:
		return "le"
	case OpGt:
		return "gt"
	case OpGe:
		return "ge"
	case OpIn:
		return "in"
	default:
		return "residual"
	}
}

// Conjunct is one literal-free compiled WHEN conjunct. Pos indexes the
// conjunct in the flattened AND of the WHEN clause; execution re-reads the
// literal values from the live query's AST at that position.
type Conjunct struct {
	// Pos is the conjunct's position in AST (sqlmini.SplitAnd) order.
	Pos int
	// Op is the compiled operator.
	Op Op
	// Col is the filtered column (empty for residual conjuncts).
	Col string
	// Flip records that the literal sat on the left of the comparison; Op is
	// already mirrored, Flip only tells binding which side to read.
	Flip bool
	// Neg marks a NOT IN list.
	Neg bool
	// Sel is the estimated selectivity in [0,1] (lower = more selective).
	Sel float64

	colIdx int // schema index of Col in the view
	shape  string
}

// WhatIfPlan is the compiled, literal-free plan of one what-if query shape
// against one view. Plans are immutable after compilation and safe to share
// across concurrent executions.
type WhatIfPlan struct {
	// Fingerprint is the 16-hex shape fingerprint keying the plan.
	Fingerprint string
	// Conjuncts lists the WHEN conjuncts in execution order: most selective
	// first, original position breaking ties, residual conjuncts by their
	// estimated half-selectivity like any other.
	Conjuncts []Conjunct
	// Fallback marks a WHEN clause that could not be proven error-free (an
	// unresolvable column, an unsupported node): Apply runs the whole tree as
	// one residual conjunct in row order, preserving error behaviour exactly.
	Fallback bool
	// FallbackReason says why (empty unless Fallback).
	FallbackReason string
	// ViewRows is the view size the plan's stats were collected over.
	ViewRows int

	explain string
}

// Pushed counts the conjuncts compiled to columnar scans.
func (p *WhatIfPlan) Pushed() int {
	n := 0
	for _, c := range p.Conjuncts {
		if c.Op != OpResidual {
			n++
		}
	}
	return n
}

// Explain renders the deterministic, literal-free plan description used by
// EXPLAIN and the plan-stability goldens. It contains no timings and no
// literal values, so the same shape against the same data always renders
// identically.
func (p *WhatIfPlan) Explain() string { return p.explain }

// validate proves e error-free under sqlmini.EvalBool with a RowEnv over
// rel: every node type is evaluable and every column reference resolves.
// Evaluation errors are structural (row-independent), so a validated tree
// can be evaluated in any order, on any subset of rows, without changing
// whether — or with what — a left-to-right row loop over the tree would fail.
func validate(e hyperql.Expr, rel *relation.Relation) error {
	switch x := e.(type) {
	case *hyperql.Literal:
		return nil
	case *hyperql.ColRef:
		if x.Table != "" && x.Table != rel.Name() {
			return fmt.Errorf("unknown table %q", x.Table)
		}
		if !rel.Schema().Has(x.Name) {
			return fmt.Errorf("unknown column %q", x.Name)
		}
		return nil
	case *hyperql.Unary:
		if x.Op != "NOT" && x.Op != "-" {
			return fmt.Errorf("unary operator %q", x.Op)
		}
		return validate(x.X, rel)
	case *hyperql.Binary:
		switch x.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/":
		default:
			return fmt.Errorf("operator %q", x.Op)
		}
		if err := validate(x.L, rel); err != nil {
			return err
		}
		return validate(x.R, rel)
	case *hyperql.InList:
		if err := validate(x.X, rel); err != nil {
			return err
		}
		for _, v := range x.Vals {
			if err := validate(v, rel); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported expression %T", e)
	}
}

// Compile builds the pushdown program of a WHEN expression against rel (the
// resolved relevant view, or a how-to's base relation). The cost model reads
// rel's per-column projections (relation.Relation.Coded) for exactly the
// columns pushable conjuncts name: a nil WHEN, or one whose tree falls back,
// touches no column.
func Compile(rel *relation.Relation, when hyperql.Expr) *WhatIfPlan {
	p := &WhatIfPlan{ViewRows: rel.Len()}
	if when == nil {
		return p
	}
	if err := validate(when, rel); err != nil {
		p.Fallback = true
		p.FallbackReason = err.Error()
		return p
	}
	conjs := sqlmini.SplitAnd(when)
	p.Conjuncts = make([]Conjunct, len(conjs))
	for i, e := range conjs {
		p.Conjuncts[i] = classify(e, i, rel)
	}
	// Cost-based ordering: most selective first, stable on original
	// position. Residual conjuncts take part like any other — validation
	// already proved order cannot change the computed set.
	sort.SliceStable(p.Conjuncts, func(a, b int) bool {
		return p.Conjuncts[a].Sel < p.Conjuncts[b].Sel
	})
	return p
}

// classify compiles one conjunct: a comparison or IN between a bare column
// reference and literals becomes a columnar filter, anything else stays
// residual.
func classify(e hyperql.Expr, pos int, rel *relation.Relation) Conjunct {
	c := Conjunct{Pos: pos, Op: OpResidual, Sel: 0.5, shape: hyperql.ShapeExpr(e)}
	switch x := e.(type) {
	case *hyperql.Binary:
		var col *hyperql.ColRef
		var flip bool
		if cr, ok := x.L.(*hyperql.ColRef); ok {
			if _, lit := x.R.(*hyperql.Literal); lit {
				col = cr
			}
		}
		if col == nil {
			if cr, ok := x.R.(*hyperql.ColRef); ok {
				if _, lit := x.L.(*hyperql.Literal); lit {
					col, flip = cr, true
				}
			}
		}
		if col == nil {
			return c
		}
		op := compileOp(x.Op, flip)
		if op == OpResidual {
			return c
		}
		ci := rel.Schema().MustIndex(col.Name)
		c.Op, c.Col, c.Flip, c.colIdx = op, col.Name, flip, ci
		c.Sel = selectivity(op, rel.Coded(ci), rel.Len(), 1)
	case *hyperql.InList:
		col, ok := x.X.(*hyperql.ColRef)
		if !ok {
			return c
		}
		for _, v := range x.Vals {
			if _, lit := v.(*hyperql.Literal); !lit {
				return c
			}
		}
		ci := rel.Schema().MustIndex(col.Name)
		c.Op, c.Col, c.Neg, c.colIdx = OpIn, col.Name, x.Neg, ci
		c.Sel = selectivity(OpIn, rel.Coded(ci), rel.Len(), len(x.Vals))
		if x.Neg {
			c.Sel = 1 - c.Sel
		}
	}
	return c
}

// compileOp maps a comparison operator (mirrored when the literal was on
// the left) to a pushdown op.
func compileOp(op string, flip bool) Op {
	if flip {
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	switch op {
	case "=":
		return OpEq
	case "!=":
		return OpNe
	case "<":
		return OpLt
	case "<=":
		return OpLe
	case ">":
		return OpGt
	case ">=":
		return OpGe
	default:
		return OpResidual
	}
}

// selectivity estimates the fraction of rows a conjunct keeps, from the
// column summary alone (plans are shape-keyed, so literal values are
// unavailable): equality keeps ~1/card of the non-null rows, IN scales by
// list arity, ranges use the classic one-third heuristic.
func selectivity(op Op, col *relation.CodedColumn, rows, arity int) float64 {
	card := float64(col.Card())
	if card < 1 {
		card = 1
	}
	nonNull := 1.0
	if rows > 0 {
		nonNull = 1 - float64(col.Nulls)/float64(rows)
	}
	switch op {
	case OpEq:
		return nonNull / card
	case OpNe:
		return nonNull * (1 - 1/card)
	case OpIn:
		s := float64(arity) / card
		if s > 1 {
			s = 1
		}
		return nonNull * s
	case OpLt, OpLe, OpGt, OpGe:
		return nonNull / 3
	default:
		return 0.5
	}
}

// renderExplain builds the deterministic EXPLAIN text at compile time.
func renderExplain(p *WhatIfPlan, q *hyperql.WhatIf) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s\n", p.Fingerprint)
	fmt.Fprintf(&b, "  view: %s (%d rows)\n", q.Use.String(), p.ViewRows)
	if p.Fallback {
		fmt.Fprintf(&b, "  when: whole tree as one residual conjunct, in row order (%s)\n", p.FallbackReason)
		return b.String()
	}
	if len(p.Conjuncts) == 0 {
		b.WriteString("  when: none (S = view)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  when: %d conjuncts, %d pushed\n", len(p.Conjuncts), p.Pushed())
	for i, c := range p.Conjuncts {
		fmt.Fprintf(&b, "    %d. %s [%s sel=%s]\n", i+1, c.shape, c.Op, trimFloat(c.Sel))
	}
	return b.String()
}

// trimFloat formats a selectivity with stable, shortest-form precision.
func trimFloat(f float64) string {
	return fmt.Sprintf("%.4g", math.Round(f*1e4)/1e4)
}
