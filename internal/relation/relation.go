package relation

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Tuple is one row of a relation; index i holds the value of schema column i.
type Tuple []Value

// Relation is a named table: a schema plus an ordered set of tuples, stored
// as one CodedColumn per attribute. Tuple order is deterministic (insertion
// order) so that all algorithms downstream are reproducible. Set semantics
// hold on the primary key or, with none declared, on the whole tuple: a
// one-column key is checked through its column's dictionary (each row has a
// code of its own there, so the code is the row), a wider one through a
// TupleIndex of its columns' codes (whose ids are the rows). A relation is
// built by Insert and never changes once shared; Extend derives the next
// version without copying it.
type Relation struct {
	name   string
	schema *Schema
	n      int
	cols   []*CodedColumn
	key    []int       // the key columns: the declared key, or every column
	tuples *TupleIndex // the key's code tuples, when it spans other than one column
	pend   []pending   // Insert's resolved tuple
	// extended is set by the first Extend, whose relation then owns the
	// spare capacity past this relation's rows in every column.
	extended atomic.Bool
}

// pending is one value of the tuple Insert is adding, resolved to its code.
type pending struct {
	v    Value
	k    valueKey
	code uint32
	seen bool
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation {
	cols := make([]*CodedColumn, schema.Len())
	for i := range cols {
		cols[i] = newColumn()
	}
	return newRelation(name, schema, cols)
}

func newRelation(name string, schema *Schema, cols []*CodedColumn) *Relation {
	r := &Relation{name: name, schema: schema, cols: cols, key: schema.KeyIndexes()}
	if len(r.key) == 0 {
		for i := range schema.Len() {
			r.key = append(r.key, i)
		}
	}
	if len(r.key) != 1 { // codes are below MaxInt32, as rows are
		r.tuples = NewTupleIndex(slices.Repeat([]int{math.MaxInt32}, len(r.key)), 0)
	}
	return r
}

// FromColumns returns the relation over schema whose column i is cols[i], as
// if its rows had been inserted in order: column i must hold only values of
// schema column i's kind (or NULL), which is what Insert's coercion leaves,
// and every column the same number of rows. The key is checked as Insert
// checks it, and a duplicate returns Insert's error for the first row that
// repeats a key. The columns become the relation's storage.
func FromColumns(name string, schema *Schema, cols []*CodedColumn) (*Relation, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("relation %s: %d columns != schema arity %d", name, len(cols), schema.Len())
	}
	r := newRelation(name, schema, cols)
	if len(cols) > 0 {
		r.n = cols[0].rows()
	}
	for ci, c := range cols {
		if c.rows() != r.n {
			return nil, fmt.Errorf("relation %s: column %s has %d rows, not %d", name, schema.Col(ci).Name, c.rows(), r.n)
		}
	}
	if r.tuples == nil {
		key := cols[r.key[0]]
		for i := range r.n {
			if key.At(i) != uint32(i) { // each row has a key code of its own, in row order
				return nil, r.duplicate(r.Row(i))
			}
		}
		return r, nil
	}
	digits := make([]uint32, len(r.key))
	for i := range r.n {
		for d, ci := range r.key {
			digits[d] = cols[ci].At(i)
		}
		if id, _ := r.tuples.ID(digits, true); int(id) != i {
			return nil, r.duplicate(r.Row(i))
		}
	}
	return r, nil
}

// duplicate is the error of a tuple whose key a row of r already holds.
func (r *Relation) duplicate(t Tuple) error {
	return fmt.Errorf("relation %s: duplicate primary key %v", r.name, t)
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Value returns the value of column ci in row i, exactly as inserted (after
// kind coercion).
func (r *Relation) Value(i, ci int) Value { return r.cols[ci].value(i) }

// Row materialises the i-th tuple.
func (r *Relation) Row(i int) Tuple {
	t := make(Tuple, len(r.cols))
	for ci, c := range r.cols {
		t[ci] = c.value(i)
	}
	return t
}

// Insert appends a tuple. It validates arity and kinds (coercing where a
// standard conversion exists) and rejects duplicate primary keys. A rejected
// tuple changes nothing.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.name, len(t), r.schema.Len())
	}
	if r.extended.Load() {
		r.thaw()
	}
	r.pend = r.pend[:0]
	for i, v := range t {
		if want := r.schema.Col(i).Kind; want != KindNull && !v.IsNull() && v.Kind() != want {
			c := Coerce(v, want)
			if c.IsNull() {
				return fmt.Errorf("relation %s: column %s: cannot coerce %s %q to %s",
					r.name, r.schema.Col(i).Name, v.Kind(), v.String(), want)
			}
			v = c
		}
		k := keyOf(v)
		code, seen := r.cols[i].dict.get(k)
		if !seen {
			code = uint32(len(r.cols[i].Values))
		}
		r.pend = append(r.pend, pending{v, k, code, seen})
	}
	var buf [8]uint32
	digits := buf[:0]
	dup := true
	for _, ci := range r.key {
		dup = dup && r.pend[ci].seen
		digits = append(digits, r.pend[ci].code)
	}
	if dup && r.tuples != nil {
		_, dup = r.tuples.ID(digits, false)
	}
	if dup {
		row := make(Tuple, len(r.pend))
		for i, p := range r.pend {
			row[i] = p.v
		}
		return r.duplicate(row)
	}
	for i, p := range r.pend {
		r.cols[i].push(p.v, p.k, p.code, p.seen)
	}
	if r.tuples != nil {
		r.tuples.ID(digits, true)
	}
	r.n++
	return nil
}

// thaw lets Insert write a relation that Extend has shared: its columns stop
// appending into the storage its first extension owns, and its dictionaries
// and key index take deltas of their own.
func (r *Relation) thaw() {
	f := r.fork(false)
	r.cols, r.tuples = f.cols, f.tuples
	r.extended.Store(false)
}

// fork returns the next version of r, empty of new rows (CodedColumn.fork).
func (r *Relation) fork(inPlace bool) *Relation {
	out := &Relation{name: r.name, schema: r.schema, n: r.n, cols: make([]*CodedColumn, len(r.cols)), key: r.key}
	for i, c := range r.cols {
		out.cols[i] = c.fork(inPlace)
	}
	if r.tuples != nil {
		out.tuples = r.tuples.Fork()
	}
	return out
}

// MustInsert inserts and panics on error; for generators and tests.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Extend returns a new relation holding this relation's rows plus the given
// tuples, validated and appended under exactly the Insert rules — arity, kind
// coercion, and primary-key uniqueness against the full (old + new) row set.
// The receiver is never written, and nothing is copied: the first extension
// of a relation appends its codes in place past the receiver's rows, later
// ones (siblings) on copies made by their first append, and dictionaries and
// key index are a frozen parent plus a delta of the extension's own. So
// readers holding the old relation see a frozen prefix, and sibling
// extensions never see each other's rows.
func (r *Relation) Extend(tuples []Tuple) (*Relation, error) {
	out := r.fork(r.extended.CompareAndSwap(false, true))
	for _, t := range tuples {
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LookupKey returns the row index of the tuple whose primary key matches the
// key attributes of t (all of t when no key is declared), or -1.
func (r *Relation) LookupKey(t Tuple) int {
	if len(r.key) == len(r.cols) && len(t) != len(r.cols) {
		return -1
	}
	codes := make([]uint32, len(r.key))
	for j, ci := range r.key {
		c, ok := r.cols[ci].Code(t[ci])
		if !ok {
			return -1
		}
		codes[j] = c
	}
	if r.tuples == nil {
		return int(codes[0]) // each row has a key code of its own, in row order
	}
	if id, ok := r.tuples.ID(codes, false); ok {
		return int(id)
	}
	return -1
}

// Domain returns the distinct values of the named column (distinct under
// Value.Key()) sorted by Compare, each represented by the last row holding
// it. Over an exact column those are the column's Values; only over an
// inexact one — Int 3 beside Float 3.0 — are the rows read.
func (r *Relation) Domain(col string) []Value {
	cc := r.cols[r.schema.MustIndex(col)]
	out := append([]Value(nil), cc.Values...)
	if !cc.Exact {
		for i := range r.n {
			out[cc.At(i)] = cc.value(i)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// MinMax returns the minimum and maximum of a numeric column, ignoring NULLs
// and NaNs. ok is false when the column has no such value.
func (r *Relation) MinMax(col string) (min, max float64, ok bool) {
	cc := r.cols[r.schema.MustIndex(col)]
	return cc.Min, cc.Max, cc.ranged
}

// String renders a small ASCII table (up to 12 rows) for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d rows]\n", r.name, strings.Join(r.schema.Names(), ", "), r.n)
	n := min(r.n, 12)
	for i := 0; i < n; i++ {
		parts := make([]string, len(r.cols))
		for j, c := range r.cols {
			parts[j] = c.value(i).String()
		}
		b.WriteString("  " + strings.Join(parts, ", ") + "\n")
	}
	if n < r.n {
		b.WriteString("  ...\n")
	}
	return b.String()
}
