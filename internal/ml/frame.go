package ml

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"hyper/internal/relation"
	"hyper/internal/shard"
)

// Frame is the columnar encoded view shared by every estimator of a query:
// one float64 column per feature (all rows of the relevant view) plus, per
// column, an interned integer code for each value. Codes are what make the
// frequency estimator's support index string-free — a feature combination
// becomes a row of small integers, which a relation.TupleIndex turns into a
// dense id.
//
// Every column is a function of a relation column's row codes, and the frame
// keeps no codes per row: a row's frame code is its relation code mapped
// through a table. A frame over a relation does not own its columns either:
// each is the relation column's one encoding (relation.CodedColumn.Encoded),
// shared with every other frame over that column, so nothing — no fit, no
// caller of Col — may write to a column. A Frame is immutable after
// construction and safe for concurrent use.
type Frame struct {
	rows, dim int
	workers   int         // construction/intern fan-out hint (0 = GOMAXPROCS)
	cols      [][]float64 // cols[c][r]: value of column c at row r
	// coded[c] is the relation column whose row codes column c's values are
	// a function of; interning goes through its codes.
	coded []*relation.CodedColumn

	// Interned codes, built lazily by Intern (tree/forest/linear fits never
	// need them; the freq index does): row r of column c has the frame code
	// remap[c][coded[c].At(r)].
	internOnce sync.Once
	remap      [][]uint32 // per column, relation code -> frame code
	dicts      []dict     // per-column value (canonical bits) -> code
	card       []uint32   // distinct values per column

	// Per-column order index, built lazily by rankStore the first time a
	// tree is fitted on the frame (freq and linear fits never need it).
	rankOnce sync.Once
	ranks    *rankStore
}

// dict interns encoded float values. Keys are canonical IEEE bits so that
// -0 and +0 share a code and NaNs (which never equal themselves) still
// intern to one code.
type dict map[uint64]uint32

func canonBits(v float64) uint64 {
	if v == 0 {
		return 0 // merge -0 and +0
	}
	if math.IsNaN(v) {
		return 0x7ff8000000000001
	}
	return math.Float64bits(v)
}

// NewFrame encodes every row of rel with enc into a frame with the default
// (GOMAXPROCS) construction fan-out.
func NewFrame(enc *Encoder, rel *relation.Relation) *Frame {
	return NewFrameWorkers(enc, rel, 0)
}

// NewFrameWorkers is NewFrame with an explicit worker fan-out for later
// interning (0 = GOMAXPROCS, 1 = serial — the engine passes its Shards knob
// so nested pools don't multiply). Column order follows the encoder's
// feature columns. A column enc learned from rel itself is rel's shared
// encoding; only under an encoder learned elsewhere does the frame fill a
// column of its own. Either equals EncodeInto per row because values sharing
// a canonical key encode alike (up to the sign of zero and NaN payload, which
// canonBits erases and no fit reads), and either is a function of rel's row
// codes, which the frame interns through.
func NewFrameWorkers(enc *Encoder, rel *relation.Relation, workers int) *Frame {
	cols := make([][]float64, enc.Dim())
	coded := make([]*relation.CodedColumn, enc.Dim())
	for c, name := range enc.cols {
		cc := rel.Coded(rel.Schema().MustIndex(name))
		coded[c] = cc
		if cc == enc.coded[c] {
			cols[c] = cc.Encoded()
			continue
		}
		cols[c] = make([]float64, rel.Len())
		for r := range cols[c] {
			cols[c][r] = enc.EncodeValue(c, cc.Values[cc.At(r)])
		}
	}
	return FrameOfColumns(cols, coded, workers)
}

// FrameOfColumns is the frame over the given equal-length columns, which it
// keeps without copying and, like every reader of a frame, never writes.
// coded names per column the relation column whose row codes the column's
// values are a function of: cols[c][r] must depend on coded[c].At(r) alone,
// as an encoding of the column or a group mean over its codes does, up to
// the sign of zero and a NaN's payload.
func FrameOfColumns(cols [][]float64, coded []*relation.CodedColumn, workers int) *Frame {
	f := &Frame{dim: len(cols), workers: workers, cols: cols, coded: coded}
	if len(cols) > 0 {
		f.rows = len(cols[0])
	}
	return f
}

// Intern assigns per-column integer codes to every value (idempotent, safe
// for concurrent use). Codes are dense, in first-seen row order per column.
func (f *Frame) Intern() { f.internOnce.Do(f.intern) }

// code returns the frame code of row r of column c.
func (f *Frame) code(c, r int) uint32 { return f.remap[c][f.coded[c].At(r)] }

// addKeys adds scale times the code of row rows[i] of column c to keys[i],
// through a table of each relation code's addend.
func (f *Frame) addKeys(c int, keys []uint64, rows []int, scale uint64) {
	table := make([]uint64, len(f.remap[c]))
	for k, code := range f.remap[c] {
		table[k] = uint64(code) * scale // wraps for a code no row holds, never read
	}
	f.coded[c].AddCodes(keys, rows, table)
}

func (f *Frame) intern() {
	f.remap = make([][]uint32, f.dim)
	f.dicts = make([]dict, f.dim)
	f.card = make([]uint32, f.dim)
	// Columns intern independently (codes are per-column, assigned in row
	// order), so interning fans out across columns without changing any code.
	f.eachColumn(f.internThrough)
}

// internThrough interns column c through its relation column: the
// dictionary is probed once per distinct relation code, at the first row
// holding it, so codes keep first-seen row order, those of interning the
// column value by value. Relation codes whose values encode alike — NULL and
// 0 of a numeric column, integers past 2^53 that round to one float — get
// one frame code.
func (f *Frame) internThrough(c int) {
	rel, d := f.coded[c], make(dict)
	remap := make([]uint32, len(rel.Values)) // code+1; 0 while unseen
	for r, left := 0, len(remap); r < f.rows && left > 0; r++ {
		if k := rel.At(r); remap[k] == 0 {
			b := canonBits(f.cols[c][r])
			code, ok := d[b]
			if !ok {
				code = uint32(len(d))
				d[b] = code
			}
			remap[k] = code + 1
			left--
		}
	}
	for k := range remap {
		remap[k]-- // a code no row holds wraps, and is never read
	}
	f.remap[c], f.dicts[c], f.card[c] = remap, d, uint32(len(d))
}

// eachColumn runs fn once per column, fanned out over a pool bounded by the
// frame's construction fan-out hint. fn must touch only its own column.
func (f *Frame) eachColumn(fn func(c int)) {
	if f.dim == 0 {
		return // shard.Fixed would hand fn one empty shard, column 0
	}
	// Never cancelled and fn never fails, so Run has no error to return.
	_ = shard.Run(context.Background(), shard.Fixed(f.dim, f.dim), f.workers, func(_, c, _, _ int) error {
		fn(c)
		return nil
	})
}

// rankStore is a frame's per-column order index, the substrate of the tree
// split search: which values a node holds, in ascending order, becomes a
// question about small integers instead of a sort of the node's values. It
// costs 4 bytes per row per column plus the distinct values, and lives as
// long as the frame does (in the engine: while the estimator set is cached).
type rankStore struct {
	// vals[c] holds column c's distinct non-NaN values ascending (-0 and +0
	// are one value), followed by a single NaN when the column has any: NaN
	// ranks last, so a walk in rank order meets it after every real value.
	vals [][]float64
	// rank[c*rows+r] indexes vals[c] at the value of row r.
	rank []uint32
	// maxCard is the longest vals[c].
	maxCard int
}

// rankStore returns the frame's order index, building it on first use
// (idempotent, safe for concurrent use: concurrent first callers share one
// build, like Intern).
func (f *Frame) rankStore() *rankStore {
	f.rankOnce.Do(func() {
		s := &rankStore{vals: make([][]float64, f.dim), rank: make([]uint32, f.rows*f.dim)}
		f.eachColumn(func(c int) {
			col := f.Col(c)
			sorted := append([]float64(nil), col...)
			sort.Float64s(sorted) // NaNs first
			nan := 0
			for nan < len(sorted) && sorted[nan] != sorted[nan] {
				nan++
			}
			distinct := slices.Compact(sorted[nan:])
			// Copied out so the index keeps the distinct values only, not
			// the sorted column they were compacted in.
			vals := append(make([]float64, 0, len(distinct)+1), distinct...)
			real := vals
			if nan > 0 {
				vals = append(vals, math.NaN())
			}
			rank := s.rank[c*f.rows : (c+1)*f.rows]
			for r, v := range col {
				if v != v {
					rank[r] = uint32(len(real))
				} else {
					rank[r] = uint32(sort.SearchFloat64s(real, v))
				}
			}
			s.vals[c] = vals
		})
		for _, v := range s.vals {
			s.maxCard = max(s.maxCard, len(v))
		}
		f.ranks = s
	})
	return f.ranks
}

// Rows returns the number of encoded rows.
func (f *Frame) Rows() int { return f.rows }

// Dim returns the number of feature columns.
func (f *Frame) Dim() int { return f.dim }

// Col returns the contiguous value slice of column c (must not be mutated).
func (f *Frame) Col(c int) []float64 { return f.cols[c] }

// Gather copies row r into dst, which must have length Dim().
func (f *Frame) Gather(r int, dst []float64) {
	for c, col := range f.cols {
		dst[c] = col[r]
	}
}
