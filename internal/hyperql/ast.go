package hyperql

import "hyper/internal/relation"

// Temporal marks whether a column reference reads the pre-update value (the
// database instance D) or the post-update value (the possible world I). The
// default resolves per clause: WHEN and USE read Pre; OUTPUT and the
// objective read Post; FOR defaults to Pre per the paper.
type Temporal int

// Temporal markers.
const (
	TimeDefault Temporal = iota
	TimePre
	TimePost
)

func (t Temporal) String() string {
	switch t {
	case TimePre:
		return "PRE"
	case TimePost:
		return "POST"
	default:
		return ""
	}
}

// Expr is any expression node.
type Expr interface {
	String() string
}

// ColRef references a column, optionally qualified by a table alias and
// wrapped in PRE()/POST(). Pos, like every Pos, is a name's source offset,
// which no printing (and so no key or fingerprint) reads.
type ColRef struct {
	Table string
	Name  string
	Time  Temporal
	Pos   int
}

func (c *ColRef) String() string { return text((*printer).expr, Expr(c)) }

// Literal holds a constant value.
type Literal struct{ Val relation.Value }

func (l *Literal) String() string { return text((*printer).expr, Expr(l)) }

// Binary is a binary operation. Op is one of: OR AND = != < <= > >= + - * /.
type Binary struct {
	Op   string
	L, R Expr
}

func (b *Binary) String() string { return text((*printer).expr, Expr(b)) }

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (u *Unary) String() string { return text((*printer).expr, Expr(u)) }

// InList is x IN (v1, v2, ...) or x NOT IN (...).
type InList struct {
	X    Expr
	Vals []Expr
	Neg  bool
}

func (i *InList) String() string { return text((*printer).expr, Expr(i)) }

// AggFunc names an aggregate.
type AggFunc string

// Supported aggregates (the decomposable functions of Definition 6).
const (
	AggAvg   AggFunc = "AVG"
	AggSum   AggFunc = "SUM"
	AggCount AggFunc = "COUNT"
)

// Valid reports whether the aggregate is supported.
func (a AggFunc) Valid() bool { return a == AggAvg || a == AggSum || a == AggCount }

// Aggregate is AGG(expr) in a SELECT item or OUTPUT/objective clause. For
// COUNT, Expr may be nil (COUNT(*)) or a Boolean condition
// (COUNT(Credit = 'Good') counts tuples satisfying the condition, the form
// used by the paper's Figure 7 queries).
type Aggregate struct {
	Func AggFunc
	Expr Expr // nil means *
	Pos  int  // source offset of the function name
}

func (a *Aggregate) String() string { return text((*printer).expr, Expr(a)) }

// SelectItem is one projection of the USE sub-select.
type SelectItem struct {
	Expr  Expr // ColRef or *Aggregate
	Alias string
}

func (s SelectItem) String() string { return text((*printer).item, s) }

// TableRef is FROM table [AS alias]; Pos is the offset of Name.
type TableRef struct {
	Name  string
	Alias string
	Pos   int
}

func (t TableRef) String() string { return text((*printer).table, t) }

// SelectStmt is the SQL query allowed inside USE: select with optional
// joins (via WHERE equality), filtering, and group-by with aggregates.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Where   Expr
	GroupBy []*ColRef
}

func (s *SelectStmt) String() string { return text((*printer).selectStmt, s) }

// UseClause is either a bare table name or a sub-select defining the
// relevant view.
type UseClause struct {
	Table  string      // non-empty for USE <table>
	Pos    int         // the offset of Table
	Select *SelectStmt // non-nil for USE ( SELECT ... )
}

func (u *UseClause) String() string { return text((*printer).use, u) }

// UpdateForm classifies the hypothetical update function f of Definition 2.
type UpdateForm int

// The three forms the paper supports: f(b)=const, f(b)=const*b, f(b)=const+b.
const (
	UpdateSet UpdateForm = iota
	UpdateScale
	UpdateShift
)

func (f UpdateForm) String() string {
	switch f {
	case UpdateScale:
		return "scale"
	case UpdateShift:
		return "shift"
	default:
		return "set"
	}
}

// UpdateSpec is one UPDATE(B) = f(PRE(B)) assignment; Pos is B's offset.
type UpdateSpec struct {
	Attr  string
	Form  UpdateForm
	Const relation.Value
	Pos   int
}

func (u UpdateSpec) String() string { return text((*printer).update, u) }

// Apply computes f(v) for the update.
func (u UpdateSpec) Apply(v relation.Value) relation.Value {
	switch u.Form {
	case UpdateScale:
		return v.Mul(u.Const)
	case UpdateShift:
		return v.Add(u.Const)
	default:
		return u.Const
	}
}

// WhatIf is a parsed what-if query (Section 3.1).
type WhatIf struct {
	Use     *UseClause
	When    Expr // nil means S = R
	Updates []UpdateSpec
	Output  *Aggregate
	For     Expr // nil means all tuples
}

func (q *WhatIf) String() string { return text((*printer).query, Query(q)) }

// LimitKind classifies one LIMIT constraint.
type LimitKind int

// Constraint kinds of the LIMIT operator (Section 4.1).
const (
	LimitRange  LimitKind = iota // lo <= POST(A) <= hi (either side optional)
	LimitL1                      // L1(PRE(A), POST(A)) <= theta
	LimitIn                      // POST(A) IN (v1, ...)
	LimitBudget                  // UPDATES <= k (at most k attributes change)
)

// LimitSpec is one constraint of the LIMIT clause.
type LimitSpec struct {
	Kind   LimitKind
	Attr   string           // for Range/L1/In
	Pos    int              // the offset of Attr
	Lo, Hi relation.Value   // for Range (Null means unbounded)
	Theta  float64          // for L1
	Vals   []relation.Value // for In
	K      int              // for Budget
}

func (l LimitSpec) String() string { return text((*printer).limit, l) }

// HowTo is a parsed how-to query (Section 4.1).
type HowTo struct {
	Use      *UseClause
	When     Expr
	Attrs    []string // HOWTOUPDATE attributes
	AttrPos  []int    // the offset of each of Attrs, in step with them
	Limits   []LimitSpec
	Maximize bool
	Obj      *Aggregate
	For      Expr
}

func (q *HowTo) String() string { return text((*printer).query, Query(q)) }

// Query is either a *WhatIf or a *HowTo.
type Query interface {
	String() string
	isQuery()
}

func (*WhatIf) isQuery() {}
func (*HowTo) isQuery()  {}

// Walk visits e and all sub-expressions in depth-first order. The visitor
// returns false to stop descending.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *Unary:
		Walk(x.X, visit)
	case *InList:
		Walk(x.X, visit)
		for _, v := range x.Vals {
			Walk(v, visit)
		}
	case *Aggregate:
		Walk(x.Expr, visit)
	}
}

// ColRefs returns every column reference in e.
func ColRefs(e Expr) []*ColRef {
	var out []*ColRef
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// HasPost reports whether e references any POST() value.
func HasPost(e Expr) bool {
	for _, c := range ColRefs(e) {
		if c.Time == TimePost {
			return true
		}
	}
	return false
}
