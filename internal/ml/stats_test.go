package ml

import (
	"math"
	"testing"

	"hyper/internal/relation"
)

// referenceCollectStats is the string-keyed CollectStats this package shipped
// before column summaries moved to relation.Relation.Coded, kept verbatim as
// the parity oracle: one pass per column, a Value.Key() per cell.
func referenceCollectStats(rel *relation.Relation) []ColumnStats {
	cols := rel.Schema().Columns()
	out := make([]ColumnStats, len(cols))
	n := rel.Len()
	for c := range cols {
		st := ColumnStats{
			Name: cols[c].Name, Rows: n, Numeric: true,
			Min: math.Inf(1), Max: math.Inf(-1),
		}
		distinct := make(map[string]struct{})
		nulls := 0
		for i := 0; i < n; i++ {
			v := rel.Row(i)[c]
			if v.IsNull() {
				nulls++
				continue
			}
			distinct[v.Key()] = struct{}{}
			switch v.Kind() {
			case relation.KindInt, relation.KindFloat:
				f := v.AsFloat()
				if math.IsNaN(f) {
					st.HasNaN = true
					continue
				}
				if a := math.Abs(f); a > st.MaxAbs {
					st.MaxAbs = a
				}
				if f < st.Min {
					st.Min = f
				}
				if f > st.Max {
					st.Max = f
				}
			default:
				st.Numeric = false
			}
		}
		st.Card = len(distinct)
		if n > 0 {
			st.NullFrac = float64(nulls) / float64(n)
		}
		if st.Min > st.Max { // no numeric values seen
			st.Min, st.Max = 0, 0
		}
		out[c] = st
	}
	return out
}

func TestCollectStatsMatchesReference(t *testing.T) {
	mixed := relation.NewRelation("M", relation.MustSchema(
		relation.Column{Name: "ID", Key: true},
		relation.Column{Name: "Mix"},
		relation.Column{Name: "AllNull"},
		relation.Column{Name: "Zeros"},
		relation.Column{Name: "Big"},
		relation.Column{Name: "Flag"},
	))
	mix := []relation.Value{
		relation.Int(1), relation.Float(1), relation.String("1"), relation.Bool(true), relation.Null,
		relation.Float(math.NaN()), relation.Float(math.Inf(-1)), relation.String("\x021"), relation.Float(1.5),
	}
	zeros := []relation.Value{relation.Float(math.Copysign(0, -1)), relation.Int(0), relation.Float(0)}
	big := []relation.Value{relation.Int(1e15), relation.Float(1e15), relation.Float(-3e16), relation.Int(999999999999999)}
	for i, v := range mix {
		mixed.MustInsert(relation.Int(int64(i)), v, relation.Null,
			zeros[i%len(zeros)], big[i%len(big)], relation.Bool(i%2 == 0))
	}
	empty := relation.NewRelation("E", mixed.Schema())

	for _, rel := range []*relation.Relation{mixed, empty, digestRel(t, 400)} {
		got, want := CollectStats(rel), referenceCollectStats(rel)
		if !statsEqual(got, want) {
			t.Errorf("relation %s:\n got %+v\nwant %+v", rel.Name(), got, want)
		}
	}
}

// TestFrameMatchesEncodeInto holds the column-major frame fill to the
// per-row encoding it replaced, over numeric, categorical, boolean and
// NULL-bearing columns: the frame over the encoder's own relation, whose
// columns are the relation's shared encodings, and one over a relation the
// encoder did not learn from (here every second row), which gathers its own.
func TestFrameMatchesEncodeInto(t *testing.T) {
	rel := relation.NewRelation("F", relation.MustSchema(
		relation.Column{Name: "ID", Key: true},
		relation.Column{Name: "Num"},
		relation.Column{Name: "Cat"},
		relation.Column{Name: "Flag"},
		relation.Column{Name: "Sparse"},
	))
	for i := 0; i < 200; i++ {
		sparse := relation.Null
		if i%3 == 0 {
			sparse = relation.Float(float64(i) / 4)
		}
		cat := relation.String([]string{"b", "a", "c"}[i%3])
		if i%11 == 0 {
			cat = relation.Null
		}
		rel.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%9)), cat, relation.Bool(i%2 == 0), sparse)
	}
	cols := []string{"Sparse", "Cat", "Num", "Flag"}
	enc := NewEncoder(rel, cols)
	evens := relation.NewRelation("F", rel.Schema())
	for i := 0; i < rel.Len(); i += 2 {
		evens.MustInsert(rel.Row(i)...)
	}
	for _, over := range []*relation.Relation{rel, evens} {
		f := NewFrameWorkers(enc, over, 1)
		want, got := make([]float64, enc.Dim()), make([]float64, enc.Dim())
		for r := 0; r < over.Len(); r++ {
			enc.EncodeInto(over, over.Row(r), want)
			f.Gather(r, got)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("row %d feature %d: frame %v, EncodeInto %v", r, c, got[c], want[c])
				}
			}
		}
		for c, name := range cols {
			sharedCol := &f.Col(c)[0] == &over.Coded(over.Schema().MustIndex(name)).Encoded()[0]
			if sharedCol != (over == rel) {
				t.Errorf("column %s shares the relation's encoding = %v over the encoder's own relation = %v", name, sharedCol, over == rel)
			}
		}
	}
}
