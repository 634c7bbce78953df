package relation

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// valueKey is the typed, allocation-free form of Value.Key: two values have
// equal valueKeys exactly when their Key() strings are equal. tag is Key()'s
// leading kind byte; whole floats below 1e15 share the int tag, and every
// NaN payload shares one key, exactly as Key() formats them.
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
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e15 {
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
	fixed [3]uint32            // code+1 of NULL, false, true; 0 = absent
	nums  [2]map[uint64]uint32 // tags 2 and 3, by bits
	strs  map[string]uint32    // tag 4
}

func (d *dict) get(k valueKey) (uint32, bool) {
	switch k.tag {
	case 0, 1:
		c := d.fixed[uint64(k.tag)+k.bits]
		return c - 1, c != 0
	case 2, 3:
		c, ok := d.nums[k.tag-2][k.bits]
		return c, ok
	default:
		c, ok := d.strs[k.s]
		return c, ok
	}
}

func (d *dict) put(k valueKey, code uint32) {
	switch k.tag {
	case 0, 1:
		d.fixed[uint64(k.tag)+k.bits] = code + 1
	case 2, 3:
		if d.nums[k.tag-2] == nil {
			d.nums[k.tag-2] = make(map[uint64]uint32)
		}
		d.nums[k.tag-2][k.bits] = code
	default:
		if d.strs == nil {
			d.strs = make(map[string]uint32)
		}
		d.strs[k.s] = code
	}
}

// CodedColumn is the key-free projection of one column of an immutable
// relation: every row's value interned to a dense code (first-seen order,
// NULL taking a code of its own) under Value.Key() identity without
// formatting a key string, plus the value of each code and the summary the
// planner's cost model and exactness guards read. It is built once per
// (relation, column) by Relation.Coded and shared by every consumer — the
// planner's stats and pushdown scans, the encoder's dictionaries, the frame
// encode, and every estimator frame, which points at Encoded. Row codes are
// stored one byte each while the column has at most 256 distinct values,
// four bytes otherwise. Fields must not be mutated.
type CodedColumn struct {
	// Values holds the first-seen value of each code.
	Values []Value
	// Nulls counts the NULL rows.
	Nulls int
	// Numeric reports that every non-null value is an int or a float.
	Numeric bool
	// HasNaN reports that some value is a floating-point NaN.
	HasNaN bool
	// MaxAbs, Min and Max summarize the non-NaN numeric values (all 0 when
	// there are none).
	MaxAbs, Min, Max float64
	// Exact reports that every row holds its code's entry in Values to the
	// bit. Value.Key() identity is coarser than that: -0.0, +0.0 and Int 0
	// share a code, as do Int 3 and Float 3.0 and every NaN payload, so only
	// over an exact column may a consumer compute on Values[code] in place of
	// the row's own value and expect the row's result.
	Exact bool

	narrow []uint8  // row codes while len(Values) <= 256 ...
	wide   []uint32 // ... and past that (exactly one of the two is set)
	dict   dict

	// The feature encoding, built by the first Encode or Encoded.
	encOnce sync.Once
	byCode  []float64 // Encode of each code's value
	encoded []float64 // byCode gathered over the rows
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
func (c *CodedColumn) At(i int) uint32 {
	if c.wide != nil {
		return c.wide[i]
	}
	return uint32(c.narrow[i])
}

// Encode maps v to the float the estimators read for this column, a function
// of the column alone. Over a Numeric column numbers pass through, a bool is
// 0 or 1 and NULL is 0. Over any other column a value is the rank of its
// Key() among the column's sorted distinct non-null keys, and NULL or a value
// no row holds is -1.
func (c *CodedColumn) Encode(v Value) float64 {
	switch {
	case !c.Numeric:
		c.encOnce.Do(c.encode)
		if code, ok := c.Code(v); ok {
			return c.byCode[code]
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
// is built once and shared by every frame over the column: callers must not
// write to it.
func (c *CodedColumn) Encoded() []float64 {
	c.encOnce.Do(c.encode)
	return c.encoded
}

func (c *CodedColumn) encode() {
	c.byCode = make([]float64, len(c.Values))
	keys := make([]string, len(c.Values))
	var ranked []int // the codes Key() ranks: a non-numeric column's non-null values
	for code, v := range c.Values {
		switch {
		case c.Numeric:
			c.byCode[code] = c.Encode(v)
		case v.IsNull():
			c.byCode[code] = -1
		default:
			keys[code], ranked = v.Key(), append(ranked, code)
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return keys[ranked[i]] < keys[ranked[j]] })
	for rank, code := range ranked {
		c.byCode[code] = float64(rank)
	}
	c.encoded = make([]float64, max(len(c.narrow), len(c.wide)))
	for i := range c.encoded {
		c.encoded[i] = c.byCode[c.At(i)]
	}
}

// Narrow clears set[i] for every row whose code has keep[code] false.
func (c *CodedColumn) Narrow(keep, set []bool) {
	if c.wide != nil {
		narrow(c.wide, keep, set)
	} else {
		narrow(c.narrow, keep, set)
	}
}

func narrow[C uint8 | uint32](codes []C, keep, set []bool) {
	for i, code := range codes {
		set[i] = set[i] && keep[code]
	}
}

func buildCoded(rows []Tuple, ci int) *CodedColumn {
	c := &CodedColumn{
		narrow:  make([]uint8, len(rows)),
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
			if code == 256 { // the 257th distinct value: widen the codes so far
				c.wide = make([]uint32, len(rows))
				for j, b := range c.narrow[:i] {
					c.wide[j] = uint32(b)
				}
				c.narrow = nil
			}
		} else if w := c.Values[code]; v.kind != w.kind || math.Float64bits(v.f) != math.Float64bits(w.f) {
			// Same key, so ints, bools and strings agree already; what a
			// key leaves open is the kind and a float's bits.
			c.Exact = false
		}
		if c.wide != nil {
			c.wide[i] = code
		} else {
			c.narrow[i] = uint8(code)
		}
		if v.kind == KindNull {
			c.Nulls++
		}
	}
	// Values sharing a key agree on kind class and float value, so the
	// summary folds over the distinct values instead of the rows.
	for _, v := range c.Values {
		f := v.AsFloat()
		switch {
		case v.kind == KindNull:
		case !v.kind.Numeric():
			c.Numeric = false
		case math.IsNaN(f):
			c.HasNaN = true
		default:
			c.MaxAbs = math.Max(c.MaxAbs, math.Abs(f))
			c.Min = math.Min(c.Min, f)
			c.Max = math.Max(c.Max, f)
		}
	}
	if c.Min > c.Max { // no numeric values seen
		c.Min, c.Max = 0, 0
	}
	return c
}

// codedStore holds the lazily built projections of one relation, one slot
// per schema column. Each slot builds at most once (concurrent first readers
// share the build); the store is dropped whole when the relation mutates.
type codedStore struct {
	slots []codedSlot
}

type codedSlot struct {
	once sync.Once
	col  atomic.Pointer[CodedColumn]
}

// Coded returns the key-free projection of column ci, building it on first
// use. Concurrent callers share one build per column. The projection
// describes the relation as of the call: Insert and Set drop every built
// column, and a relation returned by Extend starts with none.
func (r *Relation) Coded(ci int) *CodedColumn {
	s := r.coded.Load()
	for s == nil {
		r.coded.CompareAndSwap(nil, &codedStore{slots: make([]codedSlot, r.schema.Len())})
		s = r.coded.Load()
	}
	slot := &s.slots[ci]
	slot.once.Do(func() { slot.col.Store(buildCoded(r.rows, ci)) })
	return slot.col.Load()
}

// CodedColumns reports how many column projections are currently built.
func (r *Relation) CodedColumns() int {
	s := r.coded.Load()
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.slots {
		if s.slots[i].col.Load() != nil {
			n++
		}
	}
	return n
}
