package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
	"hyper/internal/sqlmini"
)

// view is the materialized relevant view V_rel and its provenance
// (sqlmini.View): the FROM table and column of each view column (an
// aggregated column's is the attribute inside the aggregate) and the base row
// behind each view row. Every mapping of view columns and rows back to base
// attributes and tuples reads it. It is a function of the USE clause alone;
// which base relation a query updates is the query's (updateSource).
type view struct {
	*sqlmini.View
	qualified []string // per view column, its source's "Rel.Attr" ("" for COUNT(*))

	// The identity row list [0, Len): what an unsampled estimator set trains
	// on. Built on first use — or, for a table's view, lengthened from an
	// earlier version's (cachedView) — and shared by every set over this
	// view: at 8 bytes a row it would otherwise be each cached set's
	// second-largest allocation. It is collected with the views sharing it.
	identityOnce sync.Once
	identity     []int
	identityDone atomic.Bool // identity is built
	claimed      atomic.Bool // a later version's view fills the room past identity
}

// identityRows returns the shared list of all view rows in order. Callers
// must not write to it.
func (v *view) identityRows() []int {
	v.identityOnce.Do(func() {
		if v.identity == nil {
			v.identity = make([]int, v.Rel.Len())
			for i := range v.identity {
				v.identity[i] = i
			}
		}
		v.identityDone.Store(true)
	})
	return v.identity
}

// deriveIdentity gives v, a table's view, the identity list of a, the view
// of an earlier version of the table, lengthened by v's new rows — when a
// has built one.
func (v *view) deriveIdentity(a *view) {
	if !v.table() || !a.table() || !a.identityDone.Load() || len(a.identity) > v.Rel.Len() {
		return
	}
	v.identity = relation.Lengthen(a.identity, v.Rel.Len(), a.claimed.CompareAndSwap(false, true))
	for i := len(a.identity); i < len(v.identity); i++ {
		v.identity[i] = i
	}
}

// table reports whether the view is a base table itself (sqlmini.TableView):
// its rows are the table's, in order, so a later version's view of the table
// holds this one's rows as a prefix.
func (v *view) table() bool { return len(v.Tables) == 1 && v.Rel == v.Tables[0] }

// buildView materializes the USE clause (step 1 of Section 3.2).
func buildView(db *relation.Database, use *hyperql.UseClause) (*view, error) {
	if use.Table != "" {
		r := db.Relation(use.Table)
		if r == nil {
			return nil, &hyperql.SemanticError{Pos: use.Pos, Msg: fmt.Sprintf("unknown table %q", use.Table)}
		}
		return newView(sqlmini.TableView(r)), nil
	}
	sv, err := sqlmini.Select(db, use.Select, "RelevantView")
	if err != nil {
		return nil, err
	}
	return newView(sv), nil
}

// newView wraps a view's provenance, qualifying each column's source once.
func newView(sv *sqlmini.View) *view {
	v := &view{View: sv, qualified: make([]string, len(sv.Cols))}
	for c, s := range sv.Cols {
		if s.Table >= 0 {
			t := sv.Tables[s.Table]
			v.qualified[c] = causal.Qualify(t.Name(), t.Schema().Col(s.Col).Name)
		}
	}
	return v
}

// updateSource validates one update attribute, named at offset pos, against
// the model of Section 3.1 — a plain view column whose source is a mutable
// column of a base relation — and returns its source. from is the FROM entry
// the query's other updates read (-1 for none): every update of a query
// reads one.
func (v *view) updateSource(attr string, pos, from int) (sqlmini.Source, error) {
	if err := v.name("", attr, pos); err != nil {
		return sqlmini.Source{}, err
	}
	c := v.Rel.Schema().MustIndex(attr)
	s := v.Cols[c]
	if s.Table < 0 {
		return s, fmt.Errorf("engine: update attribute %q has no source mapping", attr)
	}
	base := v.Tables[s.Table]
	if !base.Schema().Col(s.Col).Mutable {
		return s, fmt.Errorf("engine: update attribute %s is immutable", v.qualified[c])
	}
	if from >= 0 && s.Table != from {
		if v.Tables[from] == base {
			return s, fmt.Errorf("engine: update attribute %q reads a second FROM entry of %s; every update must read one", attr, base.Name())
		}
		return s, fmt.Errorf("engine: update attribute %s is outside the updated relation %s", v.qualified[c], v.Tables[from].Name())
	}
	if s.Agg {
		return s, fmt.Errorf("engine: update attribute %q is an aggregate of %s, not a plain view column", attr, v.qualified[c])
	}
	return s, nil
}

// column returns the first plain view column whose source is attribute attr
// of relation rel, or -1.
func (v *view) column(rel, attr string) int {
	q := causal.Qualify(rel, attr)
	for c, s := range v.Cols {
		if !s.Agg && v.qualified[c] == q {
			return c
		}
	}
	return -1
}
