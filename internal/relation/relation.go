package relation

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Tuple is one row of a relation; index i holds the value of schema column i.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Relation is a named table: a schema plus an ordered set of tuples. Tuple
// order is deterministic (insertion order) so that all algorithms downstream
// are reproducible; set semantics are enforced on primary keys only.
type Relation struct {
	name   string
	schema *Schema
	rows   []Tuple
	keyset map[string]int // key encoding -> row index
	coded  atomic.Pointer[codedStore]
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{name: name, schema: schema, keyset: make(map[string]int)}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th tuple (not a copy; callers must not mutate it).
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Rows returns the underlying tuple slice (not a copy).
func (r *Relation) Rows() []Tuple { return r.rows }

// keyOf encodes the primary-key attributes of t. With no declared key, the
// whole tuple is the key. Each attribute's Value.Key is written behind its
// length, so distinct keys of several attributes never encode alike whatever
// bytes their strings hold (a separator can occur inside a string).
func (r *Relation) keyOf(t Tuple) string {
	var b strings.Builder
	part := func(v Value) {
		k := v.Key()
		var n [binary.MaxVarintLen64]byte
		b.Write(n[:binary.PutUvarint(n[:], uint64(len(k)))])
		b.WriteString(k)
	}
	if idx := r.schema.KeyIndexes(); len(idx) > 0 {
		for _, i := range idx {
			part(t[i])
		}
	} else {
		for _, v := range t {
			part(v)
		}
	}
	return b.String()
}

// Insert appends a tuple. It validates arity and kinds (coercing where a
// standard conversion exists) and rejects duplicate primary keys.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.name, len(t), r.schema.Len())
	}
	row := make(Tuple, len(t))
	for i, v := range t {
		want := r.schema.Col(i).Kind
		if want == KindNull || v.IsNull() || v.Kind() == want {
			row[i] = v
			continue
		}
		c := Coerce(v, want)
		if c.IsNull() {
			return fmt.Errorf("relation %s: column %s: cannot coerce %s %q to %s",
				r.name, r.schema.Col(i).Name, v.Kind(), v.String(), want)
		}
		row[i] = c
	}
	k := r.keyOf(row)
	if _, dup := r.keyset[k]; dup {
		return fmt.Errorf("relation %s: duplicate primary key %v", r.name, row)
	}
	r.keyset[k] = len(r.rows)
	r.rows = append(r.rows, row)
	r.coded.Store(nil)
	return nil
}

// MustInsert inserts and panics on error; for generators and tests.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Extend returns a new relation holding this relation's rows plus the given
// tuples. The receiver is never mutated: the row slice and key index are
// copied (tuple storage is shared), so readers holding the old relation see
// a frozen prefix while the extension validates and appends under exactly
// the Insert rules — arity, kind coercion, and primary-key uniqueness
// against the full (old + new) row set.
func (r *Relation) Extend(tuples []Tuple) (*Relation, error) {
	out := &Relation{
		name:   r.name,
		schema: r.schema,
		rows:   append(make([]Tuple, 0, len(r.rows)+len(tuples)), r.rows...),
		keyset: make(map[string]int, len(r.keyset)+len(tuples)),
	}
	for k, v := range r.keyset {
		out.keyset[k] = v
	}
	for _, t := range tuples {
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LookupKey returns the row index of the tuple whose primary key matches the
// key attributes of t, or -1.
func (r *Relation) LookupKey(t Tuple) int {
	if i, ok := r.keyset[r.keyOf(t)]; ok {
		return i
	}
	return -1
}

// Value returns the value of the named column in row i.
func (r *Relation) Value(i int, col string) Value {
	return r.rows[i][r.schema.MustIndex(col)]
}

// Domain returns the distinct values of the named column (distinct under
// Value.Key()) sorted by Compare. They are the column's shared projection
// (Coded), which holds the first row of each key where Domain has always
// answered with the last: the two differ only over an inexact column — Int 3
// beside Float 3.0 — and only there are the rows read.
func (r *Relation) Domain(col string) []Value {
	ci := r.schema.MustIndex(col)
	cc := r.Coded(ci)
	out := append([]Value(nil), cc.Values...)
	if !cc.Exact {
		for i, row := range r.rows {
			out[cc.At(i)] = row[ci]
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// MinMax returns the minimum and maximum of a numeric column, ignoring NULLs.
// ok is false when the column has no numeric values.
func (r *Relation) MinMax(col string) (min, max float64, ok bool) {
	ci := r.schema.MustIndex(col)
	for _, row := range r.rows {
		v := row[ci]
		if !v.Kind().Numeric() {
			continue
		}
		f := v.AsFloat()
		if !ok {
			min, max, ok = f, f, true
			continue
		}
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	return min, max, ok
}

// Clone returns a deep copy of the relation; tuples are copied so the clone
// can be mutated independently (used to materialize possible worlds).
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.name, r.schema)
	out.rows = make([]Tuple, len(r.rows))
	for i, row := range r.rows {
		out.rows[i] = row.Clone()
	}
	for k, v := range r.keyset {
		out.keyset[k] = v
	}
	return out
}

// Sample returns a new relation containing the rows at the given indexes.
func (r *Relation) Sample(indexes []int) *Relation {
	out := NewRelation(r.name, r.schema)
	for _, i := range indexes {
		row := r.rows[i]
		out.rows = append(out.rows, row)
		out.keyset[out.keyOf(row)] = len(out.rows) - 1
	}
	return out
}

// String renders a small ASCII table (up to 12 rows) for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d rows]\n", r.name, strings.Join(r.schema.Names(), ", "), len(r.rows))
	n := len(r.rows)
	if n > 12 {
		n = 12
	}
	for i := 0; i < n; i++ {
		parts := make([]string, len(r.rows[i]))
		for j, v := range r.rows[i] {
			parts[j] = v.String()
		}
		b.WriteString("  " + strings.Join(parts, ", ") + "\n")
	}
	if n < len(r.rows) {
		b.WriteString("  ...\n")
	}
	return b.String()
}
