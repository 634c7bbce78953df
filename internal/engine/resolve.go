package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// BaseColumn is the base relation column an update attribute writes.
type BaseColumn struct {
	Rel *relation.Relation
	Col int
}

// Resolve binds a parsed query to db, the first step of every query: the
// relevant view of its USE clause, built or fetched through opts.Cache in a
// view stage of ctx's trace and meter, must hold every name the query uses,
// else it fails with the first unknown name's hyperql.SemanticError; the
// checks the tree alone decides ride along. For a how-to it returns the base
// column each HOWTOUPDATE attribute writes, in order.
func Resolve(ctx context.Context, db *relation.Database, q hyperql.Query, opts Options) ([]BaseColumn, error) {
	b, err := resolve(ctx, db, q, opts.Cache)
	return b.bases, err
}

// bound is a query resolved against its relevant view: the view, its key and
// the view stage's duration (Result.ViewTime); for a what-if its distinct
// update attributes, the FROM entry of R they all read, Y (the AVG or SUM
// column, "" for COUNT) and the COUNT condition; for a how-to the base column
// each HOWTOUPDATE attribute writes.
type bound struct {
	v           *view
	viewKey     string
	viewTime    time.Duration
	updateAttrs []string
	from        int
	yCol        string
	outCond     hyperql.Expr
	bases       []BaseColumn
}

// resolve is the one read of the view memo (cachedView): once ctx is checked,
// the view stage (its span's rows and cache_hit, its meter entry, its
// duration), then the query's names resolved against the view.
func resolve(ctx context.Context, db *relation.Database, q hyperql.Query, c *Cache) (b bound, err error) {
	var use *hyperql.UseClause
	switch q := q.(type) {
	case *hyperql.WhatIf:
		use = q.Use
	case *hyperql.HowTo:
		use = q.Use
	default:
		return b, fmt.Errorf("engine: cannot resolve %T", q)
	}
	if err = ctx.Err(); err != nil {
		return b, err
	}
	_, stage := obs.StartStage(ctx, "view")
	var hit bool
	if b.v, b.viewKey, hit, err = cachedView(db, use, c); err == nil {
		stage.Set("rows", b.v.Rel.Len())
		stage.Set("cache_hit", hit)
	}
	if b.viewTime = stage.End(); err != nil {
		return b, err
	}
	if w, ok := q.(*hyperql.WhatIf); ok {
		return b, b.resolveWhatIf(w)
	}
	return b, b.resolveHowTo(q.(*hyperql.HowTo))
}

// resolveWhatIf checks the updates (distinct mutable columns of one relation
// R), then the other clauses.
func (b *bound) resolveWhatIf(q *hyperql.WhatIf) (err error) {
	if len(q.Updates) == 0 {
		return fmt.Errorf("engine: what-if query has no UPDATE clause")
	}
	b.from = -1
	for _, u := range q.Updates {
		if slices.Contains(b.updateAttrs, u.Attr) {
			return fmt.Errorf("engine: attribute %q updated twice", u.Attr)
		}
		s, err := b.v.updateSource(u.Attr, u.Pos, b.from)
		if err != nil {
			return err
		}
		b.updateAttrs, b.from = append(b.updateAttrs, u.Attr), s.Table
	}
	b.yCol, b.outCond, err = b.v.clauses(q.When, q.Output, q.For)
	return err
}

// resolveHowTo checks HOWTOUPDATE (each attribute on its own: a candidate
// updates one), noting each one's base column, and LIMIT, then the other
// clauses.
func (b *bound) resolveHowTo(q *hyperql.HowTo) error {
	for i, a := range q.Attrs {
		s, err := b.v.updateSource(a, q.AttrPos[i], -1)
		if err != nil {
			return err
		}
		b.bases = append(b.bases, BaseColumn{b.v.Tables[s.Table], s.Col})
	}
	for _, l := range q.Limits {
		if l.Kind != hyperql.LimitBudget {
			if err := b.v.name("", l.Attr, l.Pos); err != nil {
				return err
			}
		}
	}
	_, _, err := b.v.clauses(q.When, q.Obj, q.For)
	return err
}

// clauses checks the OUTPUT aggregate (a how-to's objective), then WHEN, the
// aggregate's argument and FOR: each names view columns and holds no
// aggregate (those are per-row predicates). The aggregate reads post-update
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
	for i, e := range []hyperql.Expr{when, a.Expr, forExpr} {
		hyperql.Walk(e, func(x hyperql.Expr) bool {
			if err != nil { // false only stops descent: later siblings still come
				return false
			}
			switch x := x.(type) {
			case *hyperql.Aggregate:
				err = &hyperql.SemanticError{Pos: x.Pos, Msg: fmt.Sprintf("aggregate %s not allowed in %s", x, [...]string{"WHEN", "COUNT", "FOR"}[i])}
			case *hyperql.ColRef:
				if err = v.name(x.Table, x.Name, x.Pos); err == nil && i == 1 && x.Time == hyperql.TimePre {
					err = &hyperql.SemanticError{Pos: x.Pos, Msg: fmt.Sprintf("PRE(%s) is not allowed in OUTPUT, which reads post-update values", x.Name)}
				}
			}
			return err == nil
		})
		if err != nil {
			return "", nil, err
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
