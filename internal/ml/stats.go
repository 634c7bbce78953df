package ml

import "hyper/internal/relation"

// ColumnStats summarizes one relation column for the planner's cost model:
// the distinct-value count drives selectivity estimates for equality and IN
// predicates, the numeric range drives range-predicate interpolation, and
// the remaining flags are the exactness guards a columnar filter needs to
// stay bit-identical to row-at-a-time evaluation (NaN compares "equal" to
// every number under relation.Value.Compare, and integer/float identity via
// canonical keys only holds below 1e15).
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
			Numeric: col.Numeric, HasNaN: col.HasNaN, MaxAbs: col.MaxAbs,
			Min: col.Min, Max: col.Max,
		}
		if n > 0 {
			st.NullFrac = float64(col.Nulls) / float64(n)
		}
		out[c] = st
	}
	return out
}
