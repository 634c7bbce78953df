package ml

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hyper/internal/relation"
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

	// Interned codes, built lazily by Intern (tree/forest/linear fits never
	// need them; the freq estimator and the support set do).
	internOnce sync.Once
	codes      []codeColumn // per column: interned code of each row's value
	dicts      []dict       // per-column value (canonical bits) -> code
	card       []uint32     // distinct values per column

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
// canonBits erases and no fit reads).
func NewFrameWorkers(enc *Encoder, rel *relation.Relation, workers int) *Frame {
	cols := make([][]float64, enc.Dim())
	for c, name := range enc.cols {
		cc := rel.Coded(rel.Schema().MustIndex(name))
		if cc == enc.coded[c] {
			cols[c] = cc.Encoded()
			continue
		}
		cols[c] = make([]float64, rel.Len())
		for r := range cols[c] {
			cols[c][r] = enc.EncodeValue(c, cc.Values[cc.At(r)])
		}
	}
	return FrameOfColumns(cols, workers)
}

// FrameOfColumns is the frame over the given equal-length columns, which it
// keeps without copying and, like every reader of a frame, never writes.
func FrameOfColumns(cols [][]float64, workers int) *Frame {
	f := &Frame{dim: len(cols), workers: workers, cols: cols}
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
	return FrameOfColumns(cols, 0)
}

// Intern assigns per-column integer codes to every value (idempotent, safe
// for concurrent use). Codes are dense, in first-seen row order per column.
func (f *Frame) Intern() { f.internOnce.Do(f.intern) }

// codeColumn holds one column's row codes at the width
// relation.CodedColumn stores its own: a byte per row while the column has
// at most 256 distinct values, four bytes once it has more. A cached
// estimator set keeps its frame's codes alive — they, not the shared columns,
// are what a set costs per cell — and discrete features, the only ones the
// freq estimator and the support set are chosen for, rarely leave the narrow
// form.
type codeColumn struct {
	narrow []uint8  // while the column has at most 256 distinct values ...
	wide   []uint32 // ... and past that (exactly one of the two is set)
}

func (f *Frame) intern() {
	f.codes = make([]codeColumn, f.dim)
	f.dicts = make([]dict, f.dim)
	f.card = make([]uint32, f.dim)
	internCol := func(c int) {
		d := make(dict)
		f.dicts[c] = d
		codes := codeColumn{narrow: make([]uint8, f.rows)}
		for r, v := range f.Col(c) {
			b := canonBits(v)
			code, ok := d[b]
			if !ok {
				code = f.card[c]
				d[b] = code
				f.card[c]++
				if code == 256 { // the 257th distinct value: widen the codes so far
					codes.wide = make([]uint32, f.rows)
					for j, code := range codes.narrow[:r] {
						codes.wide[j] = uint32(code)
					}
					codes.narrow = nil
				}
			}
			if codes.wide != nil {
				codes.wide[r] = code
			} else {
				codes.narrow[r] = uint8(code)
			}
		}
		f.codes[c] = codes
	}
	// Columns intern independently (codes are per-column, assigned in row
	// order), so interning fans out across columns without changing any code.
	f.eachColumn(internCol)
}

// eachColumn runs fn once per column, fanned out over a pool bounded by the
// frame's construction fan-out hint. fn must touch only its own column.
func (f *Frame) eachColumn(fn func(c int)) {
	w := f.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > f.dim {
		w = f.dim
	}
	if w <= 1 {
		for c := 0; c < f.dim; c++ {
			fn(c)
		}
		return
	}
	var nextCol atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(nextCol.Add(1)) - 1
				if c >= f.dim {
					return
				}
				fn(c)
			}
		}()
	}
	wg.Wait()
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

// codeRow copies the interned codes of row r into dst, which must have
// length Dim(). The frame must be interned.
func (f *Frame) codeRow(r int, dst []uint32) {
	for c, col := range f.codes {
		if col.wide != nil {
			dst[c] = col.wide[r]
		} else {
			dst[c] = uint32(col.narrow[r])
		}
	}
}

// keyer interns raw feature vectors into code rows with the frame's
// per-column dictionaries.
type keyer struct {
	dicts []dict
	card  []uint32
}

// encode interns the raw feature vector x into buf — stack space for up to
// 16 features, heap past that — and returns the code slice. A value never
// seen at frame construction gets its column's unseen code card[c]: it can
// match no training key, which is exactly the semantics of zero support.
func (k *keyer) encode(x []float64, buf *[16]uint32) []uint32 {
	codes := buf[:0]
	if len(k.card) > len(buf) {
		codes = make([]uint32, 0, len(k.card))
	}
	for c, v := range x {
		code, ok := k.dicts[c][canonBits(v)]
		if !ok {
			code = k.card[c]
		}
		codes = append(codes, code)
	}
	return codes
}

// index is one level of the non-zero support index of A.4: the dense ids a
// relation.TupleIndex gives the level keys of the code rows it is shown. A
// row's level key is its first width codes, with column wild (when not -1)
// held at 0 — the backoff wildcard, a digit over an alphabet of one. The
// other alphabets are card+1, so the unseen code of a prediction is a valid
// digit that no fitted row has.
type index struct {
	ids         *relation.TupleIndex
	width, wild int
	n           int // ids given so far

	// first[id] is the frame row that first produced id. Only a shard part
	// keeps it (track), so that its ids can be re-keyed into the index it is
	// merged into.
	track bool
	first []int32
}

// newIndex returns an empty level over a frame with the given cardinalities.
// rows only decides whether the level is a flat table (a key space no larger
// than the rows to be indexed); a map grows with the combinations seen, since
// discrete rows repeat and a map sized for rows retained ~140 KB of empty
// slots per cached model fitted on 5,000 of them.
func newIndex(card []uint32, width, wild, rows int, track bool) index {
	alphabet := make([]int, width)
	for c := range alphabet {
		alphabet[c] = int(card[c]) + 1
	}
	if wild >= 0 {
		alphabet[wild] = 1
	}
	return index{ids: relation.NewTupleIndex(alphabet, rows), width: width, wild: wild, track: track}
}

// id returns the id of the code row's level key. A key not seen before gets
// the next id when add is set, and ok false otherwise; only an id that adds
// writes the index, so concurrent lookups are safe. codes is the caller's
// own scratch: the wildcard digit is patched into it and restored.
func (x *index) id(codes []uint32, add bool) (id int32, ok bool) {
	if x.wild < 0 {
		return x.ids.ID(codes[:x.width], add)
	}
	c := codes[x.wild]
	codes[x.wild] = 0
	id, ok = x.ids.ID(codes[:x.width], add)
	codes[x.wild] = c
	return id, ok
}

// add indexes the code row of frame row r and reports whether its level key
// is new.
func (x *index) add(codes []uint32, r int) (id int32, fresh bool) {
	id, _ = x.id(codes, true)
	if int(id) < x.n {
		return id, false
	}
	x.n++
	if x.track {
		x.first = append(x.first, int32(r))
	}
	return id, true
}

// SupportSet is the non-zero-support membership index of A.4 detached from
// any estimator: the engine probes it to decide whether a hypothetical
// feature combination occurs in the training data at all (the freq→forest
// fallback check) without training a regressor first. It is the frequency
// estimator's exact level without the labels.
type SupportSet struct {
	keyer
	index
}

// NewSupportSet indexes the exact feature combinations of the given frame
// rows.
func NewSupportSet(f *Frame, rows []int) *SupportSet {
	return newSupportSet(f, rows, false)
}

func newSupportSet(f *Frame, rows []int, track bool) *SupportSet {
	f.Intern()
	s := &SupportSet{keyer: keyer{f.dicts, f.card}, index: newIndex(f.card, f.dim, -1, len(rows), track)}
	codes := make([]uint32, f.dim)
	for _, r := range rows {
		f.codeRow(r, codes)
		s.add(codes, r)
	}
	return s
}

// Has reports whether the exact combination x occurs in the indexed rows.
func (s *SupportSet) Has(x []float64) bool {
	var buf [16]uint32
	_, ok := s.id(s.encode(x, &buf), false)
	return ok
}

// Len returns the number of distinct indexed combinations.
func (s *SupportSet) Len() int { return s.n }
