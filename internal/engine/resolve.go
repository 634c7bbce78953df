package engine

import (
	"fmt"
	"slices"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// Resolve binds a parsed query to db: every name it uses must be a column of
// the relevant view of its USE clause (built or fetched through opts.Cache),
// else it fails with the first unknown name's hyperql.SemanticError, and the
// checks the tree alone decides ride along. prepare, PlanContext, the how-to
// entries and hyperd's bind run it right after the view.
func Resolve(db *relation.Database, q hyperql.Query, opts Options) error {
	switch q := q.(type) {
	case *hyperql.WhatIf:
		v, _, _, err := cachedView(db, q.Use, opts.Cache)
		if err == nil {
			_, err = v.resolveWhatIf(q)
		}
		return err
	case *hyperql.HowTo:
		v, _, _, err := cachedView(db, q.Use, opts.Cache)
		if err == nil {
			err = v.resolveHowTo(q)
		}
		return err
	}
	return fmt.Errorf("engine: cannot resolve %T", q)
}

// resolved is a what-if's names as its view resolves them: the distinct
// update attributes, the FROM entry of R they all read, Y (the AVG or SUM
// column, "" for COUNT) and the COUNT condition.
type resolved struct {
	updateAttrs []string
	from        int
	yCol        string
	outCond     hyperql.Expr
}

// resolveWhatIf checks the updates (distinct mutable columns of one relation
// R), then the other clauses.
func (v *view) resolveWhatIf(q *hyperql.WhatIf) (r resolved, err error) {
	if len(q.Updates) == 0 {
		return r, fmt.Errorf("engine: what-if query has no UPDATE clause")
	}
	r.from = -1
	for _, u := range q.Updates {
		if slices.Contains(r.updateAttrs, u.Attr) {
			return r, fmt.Errorf("engine: attribute %q updated twice", u.Attr)
		}
		s, err := v.updateSource(u.Attr, u.Pos, r.from)
		if err != nil {
			return r, err
		}
		r.updateAttrs, r.from = append(r.updateAttrs, u.Attr), s.Table
	}
	r.yCol, r.outCond, err = v.clauses(q.When, q.Output, q.For)
	return r, err
}

// resolveHowTo checks HOWTOUPDATE (each attribute on its own: a candidate
// updates one) and LIMIT, then the other clauses.
func (v *view) resolveHowTo(q *hyperql.HowTo) error {
	for i, a := range q.Attrs {
		if _, err := v.updateSource(a, q.AttrPos[i], -1); err != nil {
			return err
		}
	}
	for _, l := range q.Limits {
		if l.Kind == hyperql.LimitBudget {
			continue
		}
		if err := v.name("", l.Attr, l.Pos); err != nil {
			return err
		}
	}
	_, _, err := v.clauses(q.When, q.Obj, q.For)
	return err
}

// clauses checks the OUTPUT aggregate (a how-to's objective), then the
// names WHEN, the aggregate and FOR use. The aggregate reads post-update
// values: AVG and SUM read a column, Y, and COUNT the rows meeting its
// condition, if any.
func (v *view) clauses(when hyperql.Expr, a *hyperql.Aggregate, forExpr hyperql.Expr) (yCol string, cond hyperql.Expr, err error) {
	if a == nil || !a.Func.Valid() {
		return "", nil, fmt.Errorf("engine: query has no valid OUTPUT aggregate")
	}
	switch c, ok := a.Expr.(*hyperql.ColRef); {
	case a.Func == hyperql.AggCount:
		cond = a.Expr
	case !ok:
		return "", nil, fmt.Errorf("engine: %s requires a column argument, got %v", a.Func, a.Expr)
	default:
		yCol = c.Name
	}
	for _, c := range hyperql.ColRefs(a.Expr) {
		if c.Time == hyperql.TimePre {
			return "", nil, fmt.Errorf("engine: OUTPUT reads post-update values; PRE(%s) is not allowed", c.Name)
		}
	}
	for _, e := range []hyperql.Expr{when, a.Expr, forExpr} {
		for _, c := range hyperql.ColRefs(e) {
			if err := v.name(c.Table, c.Name, c.Pos); err != nil {
				return "", nil, err
			}
		}
	}
	return yCol, cond, nil
}

// name checks a column reference at offset pos as a view row reads it
// (sqlmini.RowEnv): its qualifier, if any, is the view's name, and its name
// one of the view's columns.
func (v *view) name(table, name string, pos int) error {
	if table != "" && table != v.Rel.Name() {
		return &hyperql.SemanticError{Pos: pos, Msg: fmt.Sprintf("unknown table %q", table)}
	}
	if !v.Rel.Schema().Has(name) {
		return &hyperql.SemanticError{Pos: pos, Msg: fmt.Sprintf("unknown column %q in %s", name, v.Rel.Name())}
	}
	return nil
}
