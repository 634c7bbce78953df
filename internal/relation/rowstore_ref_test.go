package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// The row store the column store replaced, kept as the oracle of
// FuzzColumnStoreParity: one []Value per row, a key string per row formatted
// from Value.Key() for every relation (the whole tuple when no key is
// declared), and each column coded from the rows in one pass.

type refRelation struct {
	name   string
	schema *Schema
	rows   []Tuple
	keyset map[string]int // key encoding -> row index
}

func newRefRelation(name string, schema *Schema) *refRelation {
	return &refRelation{name: name, schema: schema, keyset: make(map[string]int)}
}

// keyOf encodes the primary-key attributes of t, each Value.Key behind its
// length, or the whole tuple when no key is declared.
func (r *refRelation) keyOf(t Tuple) string {
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

func (r *refRelation) Insert(t Tuple) error {
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
	return nil
}

// Extend copies the row slice and the keyset, then inserts.
func (r *refRelation) Extend(tuples []Tuple) (*refRelation, error) {
	out := &refRelation{
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

func (r *refRelation) LookupKey(t Tuple) int {
	if i, ok := r.keyset[r.keyOf(t)]; ok {
		return i
	}
	return -1
}

// Domain: the coded column's values, each replaced by the last row holding
// its key, sorted.
func (r *refRelation) Domain(ci int) []Value {
	out := append([]Value(nil), buildCoded(r.rows, ci).Values...)
	last := make(map[string]Value)
	for _, row := range r.rows {
		last[row[ci].Key()] = row[ci]
	}
	for i, v := range out {
		out[i] = last[v.Key()]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// MinMax scans the rows for numeric values, skipping NaN.
func (r *refRelation) MinMax(ci int) (min, max float64, ok bool) {
	for _, row := range r.rows {
		v := row[ci]
		if !v.Kind().Numeric() || math.IsNaN(v.AsFloat()) {
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

// buildCoded codes column ci of rows in one pass: the projection the row
// store built lazily per column and dropped on every Insert.
func buildCoded(rows []Tuple, ci int) *CodedColumn {
	narrow, wide := make([]uint8, len(rows)), []uint32(nil)
	c := &CodedColumn{
		Numeric: true,
		Exact:   true,
		Min:     math.Inf(1),
		Max:     math.Inf(-1),
	}
	for i, row := range rows {
		v := row[ci]
		k := keyOf(v)
		code, ok := c.dict.get(k)
		if !ok {
			code = uint32(len(c.Values))
			c.dict.put(k, code)
			c.Values = append(c.Values, v)
			if code == 256 {
				wide = make([]uint32, len(rows))
				for j, b := range narrow[:i] {
					wide[j] = uint32(b)
				}
				narrow = nil
			}
		} else if w := c.Values[code]; v.kind != w.kind || math.Float64bits(v.f) != math.Float64bits(w.f) {
			c.Exact = false
		}
		if wide != nil {
			wide[i] = code
		} else {
			narrow[i] = uint8(code)
		}
		if v.kind == KindNull {
			c.Nulls++
		}
	}
	c.codes = Codes{narrow: narrow, wide: wide}
	for _, v := range c.Values {
		f := v.AsFloat()
		switch {
		case v.kind == KindNull:
		case !v.kind.Numeric():
			c.Numeric = false
		case math.IsNaN(f):
		default:
			c.Min = math.Min(c.Min, f)
			c.Max = math.Max(c.Max, f)
		}
	}
	if c.Min > c.Max {
		c.Min, c.Max = 0, 0
	}
	return c
}

// paritySchemas are the three ways a relation keys its tuples: one key
// column, a composite key, none (the whole tuple). Untyped columns take any
// kind; the typed ones coerce.
var paritySchemas = []*Schema{
	MustSchema(Column{Name: "K", Key: true}, Column{Name: "V"}, Column{Name: "W", Kind: KindFloat}),
	MustSchema(Column{Name: "A", Key: true}, Column{Name: "B", Kind: KindString, Key: true}, Column{Name: "V"}, Column{Name: "W", Kind: KindFloat}),
	MustSchema(Column{Name: "A"}, Column{Name: "V"}, Column{Name: "W", Kind: KindFloat}),
}

// parityPool holds the values where codes and keys get subtle: NULL, the
// zeros, Int 3 beside Float 3.0, two NaN payloads, the 1e15 threshold, and
// strings holding the separator and tag bytes a formatted key would use.
func parityPool() []Value {
	return []Value{
		Null, Int(0), Float(0), Float(math.Copysign(0, -1)), Int(3), Float(3),
		Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0xfff8000000000abc)),
		Float(1.5), Int(-7), Bool(true), Bool(false), Float(math.Inf(1)), Int(1e15), Float(1e15),
		String(""), String("3"), String("x"), String("x|\x04y"), String("y|\x04z"), String("x|"), String("\x04y"),
		String("\x023"), String("\x00"),
	}
}

// storeProgram reads a FuzzColumnStoreParity input one byte at a time (zeros
// past its end).
type storeProgram struct {
	data []byte
	pos  int
}

func (p *storeProgram) next() byte {
	if p.pos >= len(p.data) {
		return 0
	}
	p.pos++
	return p.data[p.pos-1]
}

// FuzzColumnStoreParity holds the column store to the row store it replaced
// over random Insert / Extend sequences: inserts into any version (one that
// was extended already included), extensions of any version (siblings of
// one parent included), batches that take a column past 256 distinct values,
// and tuples that are rejected for their kinds or their keys. Every version,
// parents included, must then answer as its row-store twin: Row(i) to the
// bit, LookupKey of every tuple tried, every error text, Domain, MinMax, and
// every column's codes, values, dictionary and summary; a rejected insert
// must leave its version exactly as it was.
func FuzzColumnStoreParity(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 1, 2, 3, 0, 0, 4, 5, 6, 0, 0, 1, 2, 3})
	f.Add(uint8(1), []byte{0, 0, 17, 18, 4, 5, 0, 0, 16, 19, 4, 5, 1, 0, 2, 16, 19, 6, 7, 0, 0, 0})
	f.Add(uint8(2), []byte{0, 0, 6, 7, 8, 0, 0, 7, 7, 8, 0, 0, 6, 7, 8, 2, 0, 1, 0, 3, 9, 10})
	f.Add(uint8(0), []byte{2, 0, 1, 0, 1, 2, 3, 4, 5, 6, 0, 0, 1, 2, 3, 2, 1, 3, 0})
	f.Add(uint8(1), []byte{3, 0, 1, 0, 0, 17, 18, 9, 9, 0, 0, 17, 18, 9, 9, 1, 1, 1, 16, 19, 2, 2})
	f.Add(uint8(2), []byte{0, 0, 2, 3, 0, 0, 0, 3, 2, 0, 1, 0, 0, 200, 201, 202, 2, 0, 0, 0, 4, 4, 4})
	// Two extensions of a relation with spare capacity: the second must not
	// append where the first did.
	f.Add(uint8(0), []byte{0, 0, 100, 24, 25, 0, 0, 101, 26, 27, 0, 0, 102, 28, 29, 1, 0, 0, 103, 17, 4, 1, 0, 0, 104, 18, 5})
	// Rejected for a duplicate key and for a kind, each with values no row
	// holds, which are then inserted for real.
	f.Add(uint8(0), []byte{0, 0, 100, 24, 25, 0, 0, 100, 30, 26, 0, 0, 101, 31, 17, 0, 0, 102, 30, 4})
	f.Add(uint8(1), []byte{0, 0, 100, 17, 24, 25, 0, 0, 100, 17, 30, 26, 0, 0, 101, 17, 31, 18, 1, 0, 0, 101, 17, 31, 4})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		schema := paritySchemas[int(shape)%len(paritySchemas)]
		pool := parityPool()
		p := &storeProgram{data: data}
		value := func() Value {
			if b := p.next(); int(b) < len(pool) {
				return pool[b]
			} else {
				return Int(int64(b))
			}
		}
		tuple := func() Tuple {
			t := make(Tuple, schema.Len())
			for i := range t {
				t[i] = value()
			}
			return t
		}
		uniq := int64(10_000)
		bulks := 0 // at most two per program: their rows make every check slower
		bulk := func() []Tuple {
			if bulks++; bulks > 2 {
				return []Tuple{tuple()}
			}
			out := make([]Tuple, 300)
			for i := range out {
				out[i] = make(Tuple, schema.Len())
				for c := range out[i] {
					out[i][c] = Int(uniq)
				}
				uniq++
			}
			return out
		}
		got, want := []*Relation{NewRelation("T", schema)}, []*refRelation{newRefRelation("T", schema)}
		var tried []Tuple
		for ops := 0; p.pos < len(data) && ops < 48; ops++ {
			op, v := p.next()%4, int(p.next())%len(got)
			var batch []Tuple
			switch op {
			case 0, 3:
				batch = []Tuple{tuple()}
				if op == 3 {
					batch = bulk()
				}
				for _, tu := range batch {
					gerr, werr := got[v].Insert(tu), want[v].Insert(tu)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("Insert(%v) into version %d: %v, the row store: %v", tu, v, gerr, werr)
					}
					tried = append(tried, tu)
					if gerr != nil {
						checkStore(t, got[v], want[v], tried)
					}
				}
				continue
			case 1:
				for n := int(p.next())%4 + 1; n > 0; n-- {
					batch = append(batch, tuple())
				}
			case 2:
				batch = bulk()
			}
			tried = append(tried, batch...)
			g, gerr := got[v].Extend(batch)
			w, werr := want[v].Extend(batch)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("Extend of version %d by %v: %v, the row store: %v", v, batch, gerr, werr)
			}
			if gerr == nil && len(got) < 8 {
				got, want = append(got, g), append(want, w)
			}
		}
		for v := range got {
			checkStore(t, got[v], want[v], tried)
		}
	})
}

// checkStore holds one relation to its row-store twin; probes are tuples to
// look up and whose values each column's dictionary must place as the rows
// do.
func checkStore(t *testing.T, got *Relation, want *refRelation, probes []Tuple) {
	t.Helper()
	if got.Len() != len(want.rows) {
		t.Fatalf("%d rows, the row store %d", got.Len(), len(want.rows))
	}
	for i, row := range want.rows {
		g := got.Row(i)
		for c, v := range row {
			if !sameValueBits(g[c], v) || !sameValueBits(got.Value(i, c), v) {
				t.Fatalf("row %d column %d: %#v, the row store %#v", i, c, g[c], v)
			}
		}
	}
	for _, p := range append(probes, want.rows...) {
		if g, w := got.LookupKey(p), want.LookupKey(p); g != w {
			t.Fatalf("LookupKey(%v) = %d, the row store %d", p, g, w)
		}
	}
	for ci, col := range want.schema.Columns() {
		gc, wc := got.Coded(ci), buildCoded(want.rows, ci)
		for i := range want.rows {
			if gc.At(i) != wc.At(i) {
				t.Fatalf("column %s row %d: code %d, the row store %d", col.Name, i, gc.At(i), wc.At(i))
			}
		}
		if len(gc.Values) != len(wc.Values) {
			t.Fatalf("column %s: %d values, the row store %d", col.Name, len(gc.Values), len(wc.Values))
		}
		for code, v := range wc.Values {
			if !sameValueBits(gc.Values[code], v) {
				t.Fatalf("column %s code %d: %#v, the row store %#v", col.Name, code, gc.Values[code], v)
			}
		}
		if gc.Nulls != wc.Nulls || gc.Numeric != wc.Numeric || gc.Exact != wc.Exact ||
			math.Float64bits(gc.Min) != math.Float64bits(wc.Min) || math.Float64bits(gc.Max) != math.Float64bits(wc.Max) {
			t.Fatalf("column %s summary %+v, the row store %+v", col.Name, *gc, *wc)
		}
		codeOf := make(map[string]uint32, len(wc.Values))
		for code, v := range wc.Values {
			codeOf[v.Key()] = uint32(code)
		}
		for _, p := range probes {
			wantCode, wantOK := codeOf[p[ci].Key()]
			if code, ok := gc.Code(p[ci]); ok != wantOK || ok && code != wantCode {
				t.Fatalf("column %s: Code(%#v) = %d,%v, the rows hold it at %d,%v", col.Name, p[ci], code, ok, wantCode, wantOK)
			}
		}
		gd, wd := got.Domain(col.Name), want.Domain(ci)
		if len(gd) != len(wd) {
			t.Fatalf("column %s: Domain has %d values, the row store %d", col.Name, len(gd), len(wd))
		}
		for i := range wd {
			if !sameValueBits(gd[i], wd[i]) {
				t.Fatalf("column %s: Domain[%d] = %#v, the row store %#v", col.Name, i, gd[i], wd[i])
			}
		}
		gmin, gmax, gok := got.MinMax(col.Name)
		wmin, wmax, wok := want.MinMax(ci)
		if gok != wok || math.Float64bits(gmin) != math.Float64bits(wmin) || math.Float64bits(gmax) != math.Float64bits(wmax) {
			t.Fatalf("column %s: MinMax = %v,%v,%v, the row scan %v,%v,%v", col.Name, gmin, gmax, gok, wmin, wmax, wok)
		}
		enc := gc.Encoded()
		if len(enc) != len(want.rows) {
			t.Fatalf("column %s: %d encoded rows of %d", col.Name, len(enc), len(want.rows))
		}
		for i, x := range enc {
			if w := gc.Encode(gc.Values[gc.At(i)]); math.Float64bits(x) != math.Float64bits(w) {
				t.Fatalf("column %s row %d: encoded %v, Encode gives %v", col.Name, i, x, w)
			}
		}
	}
}
