package relation

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
)

// layered is a map that the versions of a relation share instead of copying.
// A version writes only its own delta and reads through to the deltas of the
// versions it extends, which are frozen; fork keeps that chain at most
// maxLayers deep by flattening it into one map. No key is ever put twice, so
// the layers never disagree.
type layered[K comparable] struct {
	delta map[K]uint32
	under *layered[K]
	depth int // layers under delta
}

// maxLayers bounds the lookups a miss costs: fork flattens a chain this deep,
// copying the map once per maxLayers versions that add to it.
const maxLayers = 8

func (m *layered[K]) get(k K) (uint32, bool) {
	for l := m; l != nil; l = l.under {
		if v, ok := l.delta[k]; ok {
			return v, true
		}
	}
	return 0, false
}

func (m *layered[K]) put(k K, v uint32) {
	if m.delta == nil {
		m.delta = make(map[K]uint32)
	}
	m.delta[k] = v
}

// fork returns the map of a version extending m's. m's own delta is frozen
// from then on: its owner forks again before it writes (Relation.thaw).
func (m layered[K]) fork() layered[K] {
	switch {
	case len(m.delta) == 0:
		return layered[K]{under: m.under, depth: m.depth}
	case m.depth < maxLayers:
		return layered[K]{under: &m, depth: m.depth + 1}
	}
	n := 0
	for l := &m; l != nil; l = l.under {
		n += len(l.delta)
	}
	flat := make(map[K]uint32, n)
	for l := &m; l != nil; l = l.under {
		maps.Copy(flat, l.delta)
	}
	return layered[K]{under: &layered[K]{delta: flat}, depth: 1}
}

// TupleIndex gives the distinct tuples of small integers it is shown dense
// ids in first-seen order. Digit d of a tuple is below alphabet[d]; tuples
// are radix-packed into a uint64 when the alphabets' product fits and keyed
// by their bytes otherwise. Either way distinct tuples have distinct keys:
// unlike concatenated per-value key strings, they cannot collide. A packed
// key space no larger than the rows the caller will index is a flat table
// (id+1 per packed key, at most 4 B per row) instead of a map. sqlmini groups
// and joins through it, each level of ml's frequency index keys its
// feature-code combinations through one (lookups only read, so they may run
// concurrently), and a relation whose key spans several columns
// keeps its key's code tuples in one, shared between its versions like the
// column dictionaries (over MaxInt32 alphabets, so never in a table).
type TupleIndex struct {
	stride []uint64 // nil: the alphabets are too wide to pack
	dense  []int32  // id+1 per packed key; nil: the packed keys are mapped
	packed layered[uint64]
	wide   layered[string]
	n      int32
}

// NewTupleIndex returns an empty index over tuples whose digit d is below
// alphabet[d], sized for rows tuples to be indexed.
func NewTupleIndex(alphabet []int, rows int) *TupleIndex {
	stride := make([]uint64, len(alphabet))
	acc := uint64(1)
	for d, a := range alphabet {
		stride[d] = acc
		a := uint64(max(a, 1))
		if acc > math.MaxUint64/a {
			return &TupleIndex{}
		}
		acc *= a
	}
	if acc <= uint64(rows) {
		return &TupleIndex{stride: stride, dense: make([]int32, acc)}
	}
	return &TupleIndex{stride: stride}
}

// ID returns the tuple's id. A tuple not seen before gets the next id (the
// number of distinct tuples so far) when add is set, and ok false otherwise;
// only an ID that adds writes the index.
func (x *TupleIndex) ID(digits []uint32, add bool) (id int32, ok bool) {
	if x.stride != nil {
		key := uint64(0)
		for d, v := range digits {
			key += uint64(v) * x.stride[d]
		}
		return x.KeyID(key, add)
	}
	var buf [64]byte
	b := buf[:0]
	for _, v := range digits {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	code, ok := x.wide.get(string(b))
	if !ok && add {
		code = uint32(x.n)
		x.wide.put(string(b), code)
		x.n++
	}
	return int32(code), ok || add
}

// Strides returns the digits' weights in a packed key (nil: keyed by bytes).
func (x *TupleIndex) Strides() []uint64 { return x.stride }

// KeyID is ID of the tuple whose packed key (digits times Strides) is key.
func (x *TupleIndex) KeyID(key uint64, add bool) (id int32, ok bool) {
	if x.dense != nil {
		slot := &x.dense[key]
		if *slot == 0 && add {
			x.n++
			*slot = x.n
		}
		return max(*slot-1, 0), *slot != 0
	}
	code, ok := x.packed.get(key)
	if !ok && add {
		code = uint32(x.n)
		x.packed.put(key, code)
		x.n++
	}
	return int32(code), ok || add
}

// Fork returns an index holding x's tuples, with x's ids, that takes new
// ones without writing x, which must never take another (see layered.fork):
// a relation's key index for the version extending it, a frequency-index
// level for the index extending it. A flat table is copied.
func (x *TupleIndex) Fork() *TupleIndex {
	return &TupleIndex{stride: x.stride, dense: slices.Clone(x.dense), packed: x.packed.fork(), wide: x.wide.fork(), n: x.n}
}
