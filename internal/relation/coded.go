package relation

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// valueKey is the typed, allocation-free form of Value.Key: two values have
// equal valueKeys exactly when their Key() strings are equal, so exactly when
// Value.Compare finds them equal. tag is Key()'s leading kind byte; whole
// floats in int64's range share the int tag, and every NaN payload shares one
// key, exactly as Key() formats them.
type valueKey struct {
	tag  uint8
	bits uint64
	s    string
}

func keyOf(v Value) valueKey {
	switch v.kind {
	case KindNull:
		return valueKey{}
	case KindBool:
		if v.i != 0 {
			return valueKey{tag: 1, bits: 1}
		}
		return valueKey{tag: 1}
	case KindInt:
		return valueKey{tag: 2, bits: uint64(v.i)}
	case KindFloat:
		if wholeInt(v.f) {
			return valueKey{tag: 2, bits: uint64(int64(v.f))}
		}
		if v.f != v.f {
			return valueKey{tag: 3, bits: math.Float64bits(math.NaN())}
		}
		return valueKey{tag: 3, bits: math.Float64bits(v.f)}
	default:
		return valueKey{tag: 4, s: v.s}
	}
}

// dict interns valueKeys to codes. It is split by tag so that the common
// numeric lookup hashes one word, not a struct holding a string.
type dict struct {
	fixed [3]uint32          // code+1 of NULL, false, true; 0 = absent
	nums  [2]layered[uint64] // tags 2 and 3, by bits
	strs  layered[string]    // tag 4
}

func (d *dict) get(k valueKey) (uint32, bool) {
	switch k.tag {
	case 0, 1:
		c := d.fixed[uint64(k.tag)+k.bits]
		return c - 1, c != 0
	case 2, 3:
		return d.nums[k.tag-2].get(k.bits)
	default:
		return d.strs.get(k.s)
	}
}

func (d *dict) put(k valueKey, code uint32) {
	switch k.tag {
	case 0, 1:
		d.fixed[uint64(k.tag)+k.bits] = code + 1
	case 2, 3:
		d.nums[k.tag-2].put(k.bits, code)
	default:
		d.strs.put(k.s, code)
	}
}

func (d dict) fork() dict {
	d.nums[0], d.nums[1], d.strs = d.nums[0].fork(), d.nums[1].fork(), d.strs.fork()
	return d
}

// CodedColumn is one column of a relation, and its only storage: every row's
// value interned to a dense code (first-seen order, NULL taking a code of its
// own) under Value.Key() identity without formatting a key string, the value
// of each code, the rows whose value differs in bits from their code's, and
// the summary the planner's cost model reads, all kept by Insert; the row
// codes are a Codes. Every consumer shares it — the planner's stats and
// pushdown scans, the encoder's dictionaries, the frame encode and every
// estimator frame, which points at Encoded and interns through the codes.
// Fields must not be mutated.
type CodedColumn struct {
	// Values holds the first-seen value of each code.
	Values []Value
	// Nulls counts the NULL rows.
	Nulls int
	// Numeric reports that every non-null value is an int or a float.
	Numeric bool
	// Min and Max bound the non-NaN numeric values (both 0 when there are
	// none).
	Min, Max float64
	// Exact reports that every row holds its code's entry in Values to the
	// bit. Value.Key() identity is coarser than that: -0.0, +0.0 and Int 0
	// share a code, as do Int 3 and Float 3.0 and every NaN payload, so only
	// over an exact column may a consumer compute on Values[code] in place of
	// the row's own value and expect the row's result.
	Exact bool

	codes  Codes
	dict   dict
	ranged bool // Min and Max hold a value

	// The rows that are not their code's entry in Values to the bit, in row
	// order, and their own values: what Exact is false for.
	offRows []int
	offVals []Value

	enc *encoding // this version's feature encoding, built on first use
}

// encoding is a column's feature encoding, built by the first Encode or
// Encoded of one version of the column. A version's encoding derives from
// the newest built encoding of an earlier version when its codes still
// encode alike, and from the empty encoding otherwise (build). Until it is
// built, from is the encoding of the version it extends, itself unbuilt or
// built; once built, it lets go.
type encoding struct {
	once    sync.Once
	built   atomic.Bool
	claimed atomic.Bool // a later version's encoding fills the room past this one's slices
	from    atomic.Pointer[encoding]
	numeric bool      // built over a Numeric column
	byCode  []float64 // Encode of each code's value
	rows    []float64 // byCode gathered over the rows
}

// next returns the unbuilt encoding of a version extending e's column.
func (e *encoding) next() *encoding {
	n := new(encoding)
	n.from.Store(e)
	return n
}

// ancestor returns the newest built encoding e extends, or nil.
func (e *encoding) ancestor() *encoding {
	a := e.from.Load()
	for a != nil && !a.built.Load() {
		a = a.from.Load()
	}
	return a
}

func newColumn() *CodedColumn {
	return &CodedColumn{Numeric: true, Exact: true, enc: new(encoding)}
}

// ColumnOf returns the column Insert builds from vals, one row per value in
// order.
func ColumnOf(vals []Value) *CodedColumn {
	c := newColumn()
	for _, v := range vals {
		k := keyOf(v)
		code, seen := c.dict.get(k)
		if !seen {
			code = uint32(len(c.Values))
		}
		c.push(v, k, code, seen)
	}
	return c
}

// Gather returns the column whose row i holds row rows[i] of src, exactly as
// Insert builds it from those values: codes renumbered in first-seen order
// through a table indexed by src's codes, each code's value the first such
// row's own, the rows that differ from it in bits kept aside, and the
// dictionary and summary built once per distinct value. It reads only src's
// first rows and values, which no later version of src writes.
func Gather(src *CodedColumn, rows []int32) *CodedColumn {
	null, hasNull := src.dict.get(valueKey{})
	remap := make([]uint32, len(src.Values)) // src code -> code+1
	var firsts []int32                       // per code: the src row that first holds it
	c := newColumn()
	for _, r := range rows {
		code := src.At(int(r))
		if remap[code] == 0 {
			firsts = append(firsts, r)
			remap[code] = uint32(len(firsts))
		}
		if hasNull && code == null {
			c.Nulls++
		}
	}
	c.Values = make([]Value, len(firsts))
	for code, r := range firsts {
		c.Values[code] = src.value(int(r))
	}
	c.intern()
	c.codes = src.codes.Gather(rows, remap)
	if !src.Exact {
		for i, r := range rows {
			v, w := src.value(int(r)), c.Values[c.At(i)]
			if v.kind != w.kind || math.Float64bits(v.f) != math.Float64bits(w.f) {
				c.offRows, c.offVals = append(c.offRows, i), append(c.offVals, v)
				c.Exact = false
			}
		}
	}
	return c
}

// intern puts each of c's Values in the dictionary under its code, into maps
// sized up front, and folds it into the summary, in code order as push does.
func (c *CodedColumn) intern() {
	var n [3]int // values per mapped tag: 2, 3, 4
	for _, v := range c.Values {
		if k := keyOf(v); k.tag >= 2 {
			n[k.tag-2]++
		}
	}
	for i := range c.dict.nums {
		if n[i] > 0 {
			c.dict.nums[i].delta = make(map[uint64]uint32, n[i])
		}
	}
	if n[2] > 0 {
		c.dict.strs.delta = make(map[string]uint32, n[2])
	}
	for code, v := range c.Values {
		c.dict.put(keyOf(v), uint32(code))
		c.summarize(v)
	}
}

// Card returns the number of distinct non-null values.
func (c *CodedColumn) Card() int {
	if c.Nulls > 0 {
		return len(c.Values) - 1
	}
	return len(c.Values)
}

// Code returns the code of the values sharing v's canonical key, and false
// when no row of the column holds one.
func (c *CodedColumn) Code(v Value) (uint32, bool) {
	return c.dict.get(keyOf(v))
}

// At returns the code of row i.
func (c *CodedColumn) At(i int) uint32 { return c.codes.At(i) }

// AddCodes adds table[c] to dst[i] for each i, where c is the code of row
// rows[i].
func (c *CodedColumn) AddCodes(dst []uint64, rows []int, table []uint64) {
	c.codes.AddCodes(dst, rows, table)
}

// value returns row i's value exactly as it was inserted.
func (c *CodedColumn) value(i int) Value {
	if !c.Exact {
		if j, off := slices.BinarySearch(c.offRows, i); off {
			return c.offVals[j]
		}
	}
	return c.Values[c.At(i)]
}

func (c *CodedColumn) rows() int { return c.codes.Len() }

// Encode maps v to the float the estimators read for this column, a function
// of the column alone. Over a Numeric column numbers pass through, a bool is
// 0 or 1 and NULL is 0. Over any other column a value is the rank of its
// Key() among the column's sorted distinct non-null keys, and NULL or a value
// no row holds is -1.
func (c *CodedColumn) Encode(v Value) float64 {
	switch {
	case !c.Numeric:
		if code, ok := c.Code(v); ok {
			return c.encoding().byCode[code]
		}
		return -1
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool:
		return float64(v.AsInt())
	}
	return v.AsFloat()
}

// Encoded returns Encode of every row's value (of its code's first-seen
// value, which encodes alike up to the sign of zero and a NaN's payload). It
// is built once per version of the column and shared by every frame over
// that version: callers must not write to it. A version whose column an
// earlier version's built encoding still describes copies that encoding and
// encodes only the rows and codes past it (build); the result is the same.
func (c *CodedColumn) Encoded() []float64 { return c.encoding().rows }

func (c *CodedColumn) encoding() *encoding {
	e := c.enc
	e.once.Do(func() {
		c.build(e, e.ancestor())
		e.numeric = c.Numeric
		e.from.Store(nil)
		e.built.Store(true)
	})
	return e
}

// build builds e from a, the built encoding of an earlier version of the
// column (nil: none), encoding only the codes and rows past a's; a fresh
// encoding is the one from the empty encoding. Codes are first-seen, so a's
// codes are a prefix of c's and a's rows of c's rows. A numeric column
// encodes each value by itself, so a's byCode extends by the new codes'
// values; any other column encodes a value by its rank among the distinct
// keys, which a new code can shift, so one that gained a code ranks every
// code from the empty encoding.
func (c *CodedColumn) build(e, a *encoding) {
	if a == nil || a.numeric != c.Numeric || len(a.rows) > c.rows() ||
		len(a.byCode) > len(c.Values) || (!c.Numeric && len(a.byCode) != len(c.Values)) {
		a = new(encoding)
	}
	// The first version to derive from a takes the room past a's slices and
	// writes there, where no reader of a reads; any other copies them.
	own := a.claimed.CompareAndSwap(false, true)
	e.byCode = Lengthen(a.byCode, len(c.Values), own)
	if c.Numeric {
		for code := len(a.byCode); code < len(e.byCode); code++ {
			e.byCode[code] = c.Encode(c.Values[code])
		}
	} else if len(a.byCode) == 0 {
		keys := make([]string, len(c.Values))
		var ranked []int // the codes Key() ranks: the non-null values
		for code, v := range c.Values {
			if v.IsNull() {
				e.byCode[code] = -1
			} else {
				keys[code], ranked = v.Key(), append(ranked, code)
			}
		}
		sort.Slice(ranked, func(i, j int) bool { return keys[ranked[i]] < keys[ranked[j]] })
		for rank, code := range ranked {
			e.byCode[code] = float64(rank)
		}
	}
	e.rows = Lengthen(a.rows, c.rows(), own)
	for i := len(a.rows); i < len(e.rows); i++ {
		e.rows[i] = e.byCode[c.At(i)]
	}
}

// Lengthen returns s lengthened to n elements for the caller to fill past
// s's: in place when own and s has the capacity, else a copy with room for
// later versions to fill in place — unless s is empty, a fresh build, which
// reserves none. It is how an artifact of a version grows from an earlier
// version's without copying it: own means the caller holds the room past s
// — the first taker of a CAS-guarded claim on it — so it writes where no
// reader of s reads, as Relation.Extend appends codes.
func Lengthen[T any](s []T, n int, own bool) []T {
	if own && cap(s) >= n {
		return s[:n]
	}
	if len(s) == 0 {
		return make([]T, n)
	}
	out := make([]T, n, n+n/4)
	copy(out, s)
	return out
}

// Narrow clears set[i] for every row whose code has keep[code] false.
func (c *CodedColumn) Narrow(keep, set []bool) { c.codes.Narrow(keep, set) }

// Recode maps each code of c to the code other gives the same value, -1
// where other holds none: a join, foreign-key or key probe between two
// columns, decided once per distinct value.
func (c *CodedColumn) Recode(other *CodedColumn) []int32 {
	out := make([]int32, len(c.Values))
	for code, v := range c.Values {
		out[code] = -1
		if oc, ok := other.Code(v); ok {
			out[code] = int32(oc)
		}
	}
	return out
}

// push appends a row holding v, whose key is k and whose code the dictionary
// gave as code (seen) or will give it (not seen: len(Values)).
func (c *CodedColumn) push(v Value, k valueKey, code uint32, seen bool) {
	row := c.rows()
	if !seen {
		c.dict.put(k, code)
		c.Values = append(c.Values, v)
		c.summarize(v)
	} else if w := c.Values[code]; v.kind != w.kind || math.Float64bits(v.f) != math.Float64bits(w.f) {
		// Same key, so ints, bools and strings agree already; what a key
		// leaves open is the kind and a float's bits.
		c.offRows, c.offVals = append(c.offRows, row), append(c.offVals, v)
		c.Exact = false
	}
	c.codes.Append(code)
	if v.kind == KindNull {
		c.Nulls++
	}
	if c.enc.built.Load() { // encoded before this row: start over from it
		c.enc = c.enc.next()
	}
}

// summarize folds a new code's value into the summary. Values sharing a key
// agree on kind class and float value, so folding the distinct values is
// folding the rows.
func (c *CodedColumn) summarize(v Value) {
	f := v.AsFloat()
	switch {
	case v.kind == KindNull:
	case !v.kind.Numeric():
		c.Numeric = false
	case math.IsNaN(f):
	case !c.ranged:
		c.Min, c.Max, c.ranged = f, f, true
	default:
		c.Min = math.Min(c.Min, f)
		c.Max = math.Max(c.Max, f)
	}
}

// fork returns the column of a version extending c's. In place, it appends
// into the spare capacity of c's slices, which no reader of c ever reads;
// otherwise its first append of each slice copies it. Dictionaries are
// layered, never copied, and the encoding is the new version's own.
func (c *CodedColumn) fork(inPlace bool) *CodedColumn {
	d := *c
	d.dict = c.dict.fork()
	d.enc = c.enc.next()
	if !inPlace {
		d.Values, d.codes = slices.Clip(d.Values), d.codes.Clip()
		d.offRows, d.offVals = slices.Clip(d.offRows), slices.Clip(d.offVals)
	}
	return &d
}

// Coded returns column ci.
func (r *Relation) Coded(ci int) *CodedColumn { return r.cols[ci] }
