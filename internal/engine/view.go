package engine

import (
	"fmt"
	"sync"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
	"hyper/internal/sqlmini"
)

// view is the materialized relevant view V_rel plus the metadata linking its
// columns back to the base database: the qualified source attribute of each
// view column (aggregated columns map to the attribute inside the aggregate).
// It is a function of the USE clause alone; which base relation a query
// updates is the query's (updateSource).
type view struct {
	rel       *relation.Relation
	qualified map[string]string // view column -> "Rel.Attr" source

	// The identity row list [0, Len): what an unsampled estimator set trains
	// on. Built on first use and shared by every set over this view — at 8
	// bytes a row it would otherwise be each cached set's second-largest
	// allocation — and collected with the view.
	identityOnce sync.Once
	identity     []int
}

// identityRows returns the shared list of all view rows in order. Callers
// must not write to it.
func (v *view) identityRows() []int {
	v.identityOnce.Do(func() {
		v.identity = make([]int, v.rel.Len())
		for i := range v.identity {
			v.identity[i] = i
		}
	})
	return v.identity
}

// buildView materializes the USE clause (step 1 of Section 3.2). The view
// always has one row per tuple of the update relation R, keyed by R's key,
// which the USE contract guarantees (the sub-select groups by R's key).
func buildView(db *relation.Database, use *hyperql.UseClause) (*view, error) {
	v := &view{qualified: make(map[string]string)}
	if use.Table != "" {
		r := db.Relation(use.Table)
		if r == nil {
			return nil, fmt.Errorf("engine: USE references unknown table %q", use.Table)
		}
		v.rel = r
		for _, c := range r.Schema().Columns() {
			v.qualified[c.Name] = causal.Qualify(r.Name(), c.Name)
		}
	} else {
		rel, err := sqlmini.RunSelect(db, use.Select, "RelevantView")
		if err != nil {
			return nil, err
		}
		v.rel = rel
		// Map each view column to its qualified source attribute.
		for _, item := range use.Select.Items {
			var src *hyperql.ColRef
			switch x := item.Expr.(type) {
			case *hyperql.ColRef:
				src = x
			case *hyperql.Aggregate:
				if c, ok := x.Expr.(*hyperql.ColRef); ok {
					src = c
				}
			}
			if src == nil {
				continue
			}
			name := item.Alias
			if name == "" {
				name = src.Name
			}
			q, err := qualifyRef(db, use.Select, src)
			if err != nil {
				return nil, err
			}
			v.qualified[name] = q
		}
	}
	return v, nil
}

// updateSource validates one update attribute against the model of Section
// 3.1 — a view column whose qualified source is a mutable column of a base
// relation — and returns that relation.
func (v *view) updateSource(db *relation.Database, updateAttr string) (*relation.Relation, error) {
	if !v.rel.Schema().Has(updateAttr) {
		return nil, fmt.Errorf("engine: update attribute %q is not a column of the relevant view", updateAttr)
	}
	q, ok := v.qualified[updateAttr]
	if !ok {
		return nil, fmt.Errorf("engine: update attribute %q has no source mapping", updateAttr)
	}
	relName, attr := causal.SplitQualified(q)
	base := db.Relation(relName)
	if base == nil {
		return nil, fmt.Errorf("engine: update attribute %q maps to unknown relation %q", updateAttr, relName)
	}
	if !base.Schema().Has(attr) {
		return nil, fmt.Errorf("engine: update attribute %q maps to missing column %s.%s", updateAttr, relName, attr)
	}
	col := base.Schema().Col(base.Schema().MustIndex(attr))
	if !col.Mutable {
		return nil, fmt.Errorf("engine: update attribute %s.%s is immutable", relName, attr)
	}
	return base, nil
}

// qualifyRef resolves a column reference of the USE sub-select to its
// qualified source attribute.
func qualifyRef(db *relation.Database, sel *hyperql.SelectStmt, c *hyperql.ColRef) (string, error) {
	if c.Table != "" {
		for _, tr := range sel.From {
			alias := tr.Alias
			if alias == "" {
				alias = tr.Name
			}
			if alias == c.Table || tr.Name == c.Table {
				return causal.Qualify(tr.Name, c.Name), nil
			}
		}
		return "", fmt.Errorf("engine: unknown table %q in USE select", c.Table)
	}
	found := ""
	for _, tr := range sel.From {
		r := db.Relation(tr.Name)
		if r != nil && r.Schema().Has(c.Name) {
			if found != "" {
				return "", fmt.Errorf("engine: ambiguous column %q in USE select", c.Name)
			}
			found = causal.Qualify(tr.Name, c.Name)
		}
	}
	if found == "" {
		return "", fmt.Errorf("engine: unknown column %q in USE select", c.Name)
	}
	return found, nil
}

// blockIDs assigns each row of a materialized view the id of its block
// (blocks are defined over base-relation tuples; rowBlock holds the update
// relation's per-row block ids). View rows map to update-relation tuples
// through that relation's key (its key columns are present in the view by
// the USE contract): each key column's view codes are translated into the
// base column's code space once per distinct value, and a row's translated
// codes name its base row. Rows whose key is missing from the base relation
// map to block 0. A view that IS the update relation (a USE over a bare
// table) needs none of this: its rows' blocks are rowBlock itself.
func (v *view) blockIDs(updateRel *relation.Relation, rowBlock []int) ([]int, error) {
	base := updateRel.Schema()
	keyIdx := base.KeyIndexes()
	out := make([]int, v.rel.Len())
	if len(keyIdx) == 0 {
		// No declared key: the base relation keys whole tuples, and every
		// view row probes it with the same all-NULL tuple.
		if br := updateRel.LookupKey(make(relation.Tuple, base.Len())); br >= 0 {
			for i := range out {
				out[i] = rowBlock[br]
			}
		}
		return out, nil
	}
	viewCols := make([]*relation.CodedColumn, len(keyIdx))
	toBase := make([][]int32, len(keyIdx))
	for j, ki := range keyIdx {
		name := base.Col(ki).Name
		vi, ok := v.rel.Schema().Index(name)
		if !ok {
			return nil, fmt.Errorf("engine: relevant view is missing key column %q of relation %s", name, updateRel.Name())
		}
		viewCols[j] = v.rel.Coded(vi)
		toBase[j] = viewCols[j].Recode(updateRel.Coded(ki))
	}
	codes := make([]uint32, len(keyIdx))
rows:
	for i := range out {
		for j, vc := range viewCols {
			c := toBase[j][vc.At(i)]
			if c < 0 {
				continue rows
			}
			codes[j] = uint32(c)
		}
		if br := updateRel.KeyRow(codes); br >= 0 {
			out[i] = rowBlock[br]
		}
	}
	return out, nil
}
