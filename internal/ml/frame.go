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
// A frame over a relation does not own its columns: each is the relation
// column's one encoding (relation.CodedColumn.Encoded), shared with every
// other frame over that column, so nothing — no fit, no caller of Col — may
// write to a column. A Frame is immutable after construction and safe for
// concurrent use.
type Frame struct {
	rows, dim int
	workers   int         // construction/intern fan-out hint (0 = GOMAXPROCS)
	cols      [][]float64 // cols[c][r]: value of column c at row r
	// coded[c], when set, is the relation column whose row codes column c's
	// values are a function of; interning goes through its codes.
	coded []*relation.CodedColumn

	// Interned codes, built lazily by Intern (tree/forest/linear fits never
	// need them; the freq index does).
	internOnce sync.Once
	codes      []columnCodes
	dicts      []dict   // per-column value (canonical bits) -> code
	card       []uint32 // distinct values per column

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
// coded may be nil, or name per column the relation column (nil: none) whose
// row codes the column's values are a function of: cols[c][r] must depend on
// coded[c].At(r) alone, as an encoding of the column does.
func FrameOfColumns(cols [][]float64, coded []*relation.CodedColumn, workers int) *Frame {
	f := &Frame{dim: len(cols), workers: workers, cols: cols, coded: coded}
	if len(cols) > 0 {
		f.rows = len(cols[0])
	}
	return f
}

// FrameFromRows builds a frame from an already-encoded row matrix. It is the
// adapter behind the historical [][]float64 fit entry points.
func FrameFromRows(X [][]float64) *Frame {
	n := len(X)
	dim := 0
	if n > 0 {
		dim = len(X[0])
	}
	data := make([]float64, n*dim)
	cols := make([][]float64, dim)
	for c := range cols {
		cols[c] = data[c*n : (c+1)*n]
	}
	for r, x := range X {
		for c, v := range x {
			cols[c][r] = v
		}
	}
	return FrameOfColumns(cols, nil, 0)
}

// Intern assigns per-column integer codes to every value (idempotent, safe
// for concurrent use). Codes are dense, in first-seen row order per column.
func (f *Frame) Intern() { f.internOnce.Do(f.intern) }

// columnCodes gives each row of a frame column its interned code. A column
// over a relation column reads the relation's row code and maps it through
// remap, so the frame keeps nothing per row; any other column (a ψ summary, a
// FrameFromRows matrix) keeps codes of its own.
type columnCodes struct {
	rel   *relation.CodedColumn
	remap []uint32 // relation code -> frame code
	own   codeColumn
}

func (c *columnCodes) at(r int) uint32 {
	if c.rel != nil {
		return c.remap[c.rel.At(r)]
	}
	return c.own.at(r)
}

// addKeys adds scale times the code of row rows[i] of column c to keys[i],
// through a table of each relation code's addend over a relation column.
func (f *Frame) addKeys(c int, keys []uint64, rows []int, scale uint64) {
	cc := &f.codes[c]
	if cc.rel == nil {
		for i, r := range rows {
			keys[i] += uint64(cc.own.at(r)) * scale
		}
		return
	}
	table := make([]uint64, len(cc.remap))
	for k, code := range cc.remap {
		table[k] = uint64(code) * scale // wraps for a code no row holds, never read
	}
	cc.rel.AddCodes(keys, rows, table)
}

// codeColumn holds a small integer per row the way relation.CodedColumn holds
// its codes: a byte per row while every value is below 256, four bytes once
// one is not (exactly one of the two is set).
type codeColumn struct {
	narrow []uint8
	wide   []uint32
}

func (s *codeColumn) at(i int) uint32 {
	if s.wide != nil {
		return s.wide[i]
	}
	return uint32(s.narrow[i])
}

func (s *codeColumn) len() int { return max(len(s.narrow), len(s.wide)) }

// grow returns a copy of s holding n rows, s's first.
func (s *codeColumn) grow(n int) codeColumn {
	if s.wide != nil {
		w := make([]uint32, n)
		copy(w, s.wide)
		return codeColumn{wide: w}
	}
	b := make([]uint8, n)
	copy(b, s.narrow)
	return codeColumn{narrow: b}
}

// set stores v at row i, widening the rows so far at the first v past a byte.
func (s *codeColumn) set(i int, v uint32) {
	if s.wide == nil && v > math.MaxUint8 {
		s.wide = make([]uint32, len(s.narrow))
		for j, b := range s.narrow[:i] {
			s.wide[j] = uint32(b)
		}
		s.narrow = nil
	}
	if s.wide != nil {
		s.wide[i] = v
	} else {
		s.narrow[i] = uint8(v)
	}
}

func (f *Frame) intern() {
	f.codes = make([]columnCodes, f.dim)
	f.dicts = make([]dict, f.dim)
	f.card = make([]uint32, f.dim)
	// Columns intern independently (codes are per-column, assigned in row
	// order), so interning fans out across columns without changing any code.
	f.eachColumn(func(c int) {
		f.dicts[c] = make(dict)
		if c < len(f.coded) && f.coded[c] != nil {
			f.codes[c] = f.internThrough(c, f.coded[c])
		} else {
			f.codes[c] = f.internRows(c)
		}
	})
}

// internValue returns column c's code for v, giving it the next code when the
// column has not held its canonical value before.
func (f *Frame) internValue(c int, v float64) uint32 {
	b := canonBits(v)
	code, ok := f.dicts[c][b]
	if !ok {
		code = f.card[c]
		f.dicts[c][b] = code
		f.card[c]++
	}
	return code
}

// internThrough interns column c through the relation column rel: the
// dictionary is probed once per distinct relation code, at the first row
// holding it, so codes keep first-seen row order and equal internRows'.
// Relation codes whose values encode alike — NULL and 0 of a numeric column,
// integers past 2^53 that round to one float — get one frame code.
func (f *Frame) internThrough(c int, rel *relation.CodedColumn) columnCodes {
	remap := make([]uint32, len(rel.Values)) // code+1; 0 while unseen
	for r, left := 0, len(remap); r < f.rows && left > 0; r++ {
		if k := rel.At(r); remap[k] == 0 {
			remap[k] = f.internValue(c, f.cols[c][r]) + 1
			left--
		}
	}
	for k := range remap {
		remap[k]-- // a code no row holds wraps, and is never read
	}
	return columnCodes{rel: rel, remap: remap}
}

// internRows interns column c value by value, keeping each row's code.
func (f *Frame) internRows(c int) columnCodes {
	codes := codeColumn{narrow: make([]uint8, f.rows)}
	for r, v := range f.cols[c] {
		codes.set(r, f.internValue(c, v))
	}
	return columnCodes{own: codes}
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
