package ml

import (
	"math"

	"hyper/internal/relation"
)

// ColumnStats summarizes one relation column: its distinct-value count, NULL
// share, kind and numeric range. The planner reads none of it — it reads the
// relation's per-column projections directly — so this summary is the
// benchmark's probe of the column store.
type ColumnStats struct {
	// Name is the column name.
	Name string `json:"name"`
	// Rows is the relation size the stats were collected over.
	Rows int `json:"rows"`
	// Card is the number of distinct non-null values.
	Card int `json:"card"`
	// NullFrac is the fraction of rows whose value is NULL.
	NullFrac float64 `json:"null_frac"`
	// Numeric reports that every non-null value is an int or a float.
	Numeric bool `json:"numeric"`
	// HasNaN reports that some value is a floating-point NaN.
	HasNaN bool `json:"has_nan,omitempty"`
	// MaxAbs is the largest absolute numeric value seen (0 when none).
	MaxAbs float64 `json:"max_abs,omitempty"`
	// Min and Max bound the numeric values (valid when Numeric and at least
	// one non-null value exists).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// CollectStats summarizes every column of rel. Each summary is rendered from
// the relation's shared per-column projection (relation.Relation.Coded), so
// a column some consumer already projected costs nothing here and a fresh
// one is interned once, key-free, and left behind for the next consumer. The
// planner does not call this: it reads the projections of just the columns a
// query names.
func CollectStats(rel *relation.Relation) []ColumnStats {
	cols := rel.Schema().Columns()
	out := make([]ColumnStats, len(cols))
	n := rel.Len()
	for c := range cols {
		col := rel.Coded(c)
		st := ColumnStats{
			Name: cols[c].Name, Rows: n, Card: col.Card(),
			Numeric: col.Numeric, Min: col.Min, Max: col.Max,
		}
		for _, v := range col.Values { // values sharing a code share a float
			switch f := v.AsFloat(); {
			case !v.Kind().Numeric():
			case math.IsNaN(f):
				st.HasNaN = true
			default:
				st.MaxAbs = math.Max(st.MaxAbs, math.Abs(f))
			}
		}
		if n > 0 {
			st.NullFrac = float64(col.Nulls) / float64(n)
		}
		out[c] = st
	}
	return out
}
