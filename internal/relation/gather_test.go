package relation

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hyper/internal/stats"
)

// insertedColumn is the oracle of Gather and ColumnOf: the column a relation
// keyed on a row number builds when vals are inserted in order.
func insertedColumn(vals []Value) *CodedColumn {
	r := NewRelation("T", MustSchema(Column{Name: "ID", Kind: KindInt, Key: true}, Column{Name: "V"}))
	for i, v := range vals {
		r.MustInsert(Int(int64(i)), v)
	}
	return r.Coded(1)
}

// sameColumnState compares two columns field by field: width, codes, values
// and the rows kept aside to the bit, the dictionary over every value, and
// the summary.
func sameColumnState(got, want *CodedColumn, rows int) error {
	if (got.codes.wide != nil) != (want.codes.wide != nil) {
		return fmt.Errorf("wide = %v, Insert's %v", got.codes.wide != nil, want.codes.wide != nil)
	}
	if got.rows() != rows || want.rows() != rows {
		return fmt.Errorf("%d rows, Insert's %d, want %d", got.rows(), want.rows(), rows)
	}
	for i := range rows {
		if got.At(i) != want.At(i) {
			return fmt.Errorf("row %d: code %d, Insert's %d", i, got.At(i), want.At(i))
		}
		if !sameValueBits(got.value(i), want.value(i)) {
			return fmt.Errorf("row %d: %#v, Insert's %#v", i, got.value(i), want.value(i))
		}
	}
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("%d values, Insert's %d", len(got.Values), len(want.Values))
	}
	for code, v := range want.Values {
		if !sameValueBits(got.Values[code], v) {
			return fmt.Errorf("code %d: %#v, Insert's %#v", code, got.Values[code], v)
		}
		if c, ok := got.Code(v); !ok || c != uint32(code) {
			return fmt.Errorf("Code(%#v) = %d,%v, want %d", v, c, ok, code)
		}
	}
	if !slices.Equal(got.offRows, want.offRows) || len(got.offVals) != len(want.offVals) {
		return fmt.Errorf("rows kept aside %v, Insert's %v", got.offRows, want.offRows)
	}
	for j, v := range want.offVals {
		if !sameValueBits(got.offVals[j], v) {
			return fmt.Errorf("row %d kept aside as %#v, Insert's %#v", got.offRows[j], got.offVals[j], v)
		}
	}
	if got.Exact != want.Exact || got.Nulls != want.Nulls || got.Numeric != want.Numeric || got.ranged != want.ranged ||
		math.Float64bits(got.Min) != math.Float64bits(want.Min) || math.Float64bits(got.Max) != math.Float64bits(want.Max) {
		return fmt.Errorf("summary %+v, Insert's %+v", *got, *want)
	}
	return nil
}

// TestGatherMatchesInsert holds Gather (and ColumnOf) to Insert over sources
// exact and not — every key relative, NULLs, int/float twins, signed zeros,
// NaN payloads — and over row lists that repeat, reorder, skip and take a
// column across the one-byte code limit from either side.
func TestGatherMatchesInsert(t *testing.T) {
	many := func(n int) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = Float(float64(i) + 0.5)
		}
		return out
	}
	sources := map[string][]Value{
		"every key relative": append(keyParityValues(), keyParityValues()...),
		"ints and NULLs":     {Int(3), Null, Int(1), Int(3), Null, Int(7)},
		"twins first":        {Float(3), Int(3), Float(math.Copysign(0, -1)), Int(0), Float(0)},
		"300 floats":         many(300),
		"256 floats":         many(256),
		"257 floats":         append(many(256), Int(-1), Int(-1)),
		"empty":              nil,
	}
	rng := stats.NewRNG(3)
	for name, vals := range sources {
		src := insertedColumn(vals)
		n := len(vals)
		lists := map[string][]int32{"none": {}}
		if n > 0 {
			lists["all"], lists["reversed"], lists["random"], lists["every third twice"] = nil, nil, nil, nil
			for i := range n {
				lists["all"] = append(lists["all"], int32(i))
				lists["reversed"] = append(lists["reversed"], int32(n-1-i))
				if i%3 == 0 {
					lists["every third twice"] = append(lists["every third twice"], int32(i), int32(i))
				}
			}
			for range 3 * n {
				lists["random"] = append(lists["random"], int32(rng.Intn(n)))
			}
		}
		for lname, rows := range lists {
			picked := make([]Value, len(rows))
			for i, r := range rows {
				picked[i] = vals[r]
			}
			want := insertedColumn(picked)
			if err := sameColumnState(Gather(src, rows), want, len(rows)); err != nil {
				t.Errorf("%s, rows %s: Gather: %v", name, lname, err)
			}
			if err := sameColumnState(ColumnOf(picked), want, len(rows)); err != nil {
				t.Errorf("%s, rows %s: ColumnOf: %v", name, lname, err)
			}
		}
	}
}

// TestFromColumnsMatchesInsert: a relation wrapped around finished columns
// answers as the one built by Insert — the same rows and key lookups, or,
// for a duplicate key, Insert's error for the first row that repeats one —
// under a one-column, a composite and a whole-tuple key.
func TestFromColumnsMatchesInsert(t *testing.T) {
	schemas := []*Schema{
		MustSchema(Column{Name: "K", Kind: KindInt, Key: true}, Column{Name: "V"}),
		MustSchema(Column{Name: "A", Kind: KindInt, Key: true}, Column{Name: "B", Kind: KindString, Key: true}, Column{Name: "V"}),
		MustSchema(Column{Name: "A", Kind: KindInt}, Column{Name: "V"}),
	}
	tables := map[string][]Tuple{
		"distinct": {{Int(1), String("x"), Float(0.5)}, {Int(2), String("x"), Null}, {Int(1), String("y"), Float(0.5)}},
		"repeat":   {{Int(1), String("x"), Float(0.5)}, {Int(2), String("y"), Int(3)}, {Int(1), String("x"), Float(0.5)}, {Int(1), String("x"), Int(9)}},
		"twins":    {{Int(1), String("x"), Int(3)}, {Int(1), String("x"), Float(3)}},
		"empty":    nil,
	}
	for si, schema := range schemas {
		for name, table := range tables {
			want := NewRelation("V", schema)
			var wantErr error
			cols := make([][]Value, schema.Len())
			for _, full := range table {
				row := full // (A, B, V), or (A, V) under a two-column schema
				if schema.Len() == 2 {
					row = Tuple{full[0], full[2]}
				}
				for c, v := range row {
					cols[c] = append(cols[c], v)
				}
				if wantErr == nil {
					wantErr = want.Insert(row)
				}
			}
			coded := make([]*CodedColumn, len(cols))
			for c, vals := range cols {
				coded[c] = ColumnOf(vals)
			}
			got, err := FromColumns("V", schema, coded)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("schema %d, %s: error %v, Insert's %v", si, name, err, wantErr)
				continue
			}
			if err != nil {
				continue
			}
			if got.Len() != want.Len() {
				t.Fatalf("schema %d, %s: %d rows, Insert's %d", si, name, got.Len(), want.Len())
			}
			for i := range want.Len() {
				if g, w := got.LookupKey(want.Row(i)), want.LookupKey(want.Row(i)); g != w || g != i {
					t.Errorf("schema %d, %s: LookupKey of row %d = %d, Insert's %d", si, name, i, g, w)
				}
			}
			// The key index is the relation's own: an extension repeating a
			// row is refused as Insert refuses it.
			if want.Len() > 0 {
				_, err := got.Extend([]Tuple{want.Row(0)})
				_, wantErr := want.Extend([]Tuple{want.Row(0)})
				if err == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("schema %d, %s: extending by row 0 gave %v, Insert's %v", si, name, err, wantErr)
				}
			}
		}
	}
	if _, err := FromColumns("V", schemas[0], []*CodedColumn{ColumnOf([]Value{Int(1)})}); err == nil {
		t.Error("FromColumns accepted one column for a two-column schema")
	}
	if _, err := FromColumns("V", schemas[0], []*CodedColumn{ColumnOf([]Value{Int(1)}), ColumnOf(nil)}); err == nil {
		t.Error("FromColumns accepted columns of different lengths")
	}
}

// TestTupleIndexDenseParity feeds one stream of random digit tuples, adding
// and probing, to a dense index and a mapped one over the same alphabets:
// ids (first-seen order, held to a map of its own) and ok results agree. A
// key space one above the rows bound is mapped, and so is the relation-key
// shape (two or more MaxInt32 alphabets) over any row count a table could
// hold.
func TestTupleIndexDenseParity(t *testing.T) {
	alphabet := []int{7, 5, 3} // 105 packed keys
	if x := NewTupleIndex(alphabet, 104); x.dense != nil {
		t.Error("a key space one above the rows bound got a table")
	}
	for _, shape := range [][]int{{math.MaxInt32, math.MaxInt32}, {math.MaxInt32, math.MaxInt32, math.MaxInt32}} {
		if x := NewTupleIndex(shape, math.MaxInt32); x.dense != nil {
			t.Errorf("the relation-key shape %v got a table", shape)
		}
	}
	for _, schema := range []*Schema{
		MustSchema(Column{Name: "A", Key: true}, Column{Name: "B", Key: true}, Column{Name: "V"}),
		MustSchema(Column{Name: "A"}, Column{Name: "B"}),
	} {
		if r := NewRelation("T", schema); r.tuples == nil || r.tuples.dense != nil {
			t.Errorf("the key index of a relation over %v is not a mapped TupleIndex", schema)
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		dense, mapped := NewTupleIndex(alphabet, 105), NewTupleIndex(alphabet, 0)
		if dense.dense == nil || mapped.dense != nil {
			t.Fatalf("dense table %v, mapped table %v", dense.dense != nil, mapped.dense != nil)
		}
		rng := stats.NewRNG(seed)
		ids := map[[3]uint32]int32{}
		for range 400 {
			var key [3]uint32
			for d, a := range alphabet {
				key[d] = uint32(rng.Intn(a))
			}
			add := rng.Intn(2) == 0
			did, dok := dense.ID(key[:], add)
			mid, mok := mapped.ID(key[:], add)
			if did != mid || dok != mok {
				t.Fatalf("seed %d, %v add=%v: dense %d,%v, mapped %d,%v", seed, key, add, did, dok, mid, mok)
			}
			want, seen := ids[key]
			if !seen && add {
				want, seen = int32(len(ids)), true
				ids[key] = want
			}
			if dok != seen || seen && did != want {
				t.Fatalf("seed %d, %v add=%v: id %d,%v, first-seen order gives %d,%v", seed, key, add, did, dok, want, seen)
			}
		}
	}
}
