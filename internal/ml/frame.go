package ml

import (
	"encoding/binary"
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
// becomes a row of small integers, packed into a single uint64 key where the
// column cardinalities allow it.
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

// Per-column code space: real codes are 0..card-1; two extra symbols are
// reserved per column for prediction-time unseen values and for the backoff
// wildcard. codeUnseen must differ per column (it is card[c]); the wildcard
// is the all-ones sentinel in wide keys and card[c]+1 in packed keys.
const wideWildcard = ^uint32(0)

// keyer packs interned code rows into map keys. When the product of the
// per-column alphabets (cardinality + unseen + wildcard) fits in a uint64,
// keys are exact packed integers (radix encoding, collision-free by
// construction) and backoff keys are O(1) digit substitutions. Otherwise it
// falls back to the wide representation — the little-endian bytes of the
// code row — which is equally collision-free, just heap-allocated on
// insertion (lookups reuse a scratch buffer and stay allocation-free via the
// compiler's map[string(bytes)] optimization).
type keyer struct {
	dim    int
	dicts  []dict
	card   []uint32
	stride []uint64 // nil => wide mode
}

func newKeyer(f *Frame) keyer {
	k := keyer{dim: f.dim, dicts: f.dicts, card: f.card}
	stride := make([]uint64, f.dim)
	acc := uint64(1)
	for c := 0; c < f.dim; c++ {
		stride[c] = acc
		alpha := uint64(f.card[c]) + 2 // + unseen + wildcard
		if acc > math.MaxUint64/alpha {
			return k // product overflows: wide mode
		}
		acc *= alpha
	}
	k.stride = stride
	return k
}

func (k *keyer) packed() bool { return k.stride != nil }

// encode interns the raw feature vector x into dst; values never seen at
// frame construction get the per-column unseen sentinel (they can match no
// training key, which is exactly the semantics of zero support).
func (k *keyer) encode(x []float64, dst []uint32) {
	for c, v := range x {
		if code, ok := k.dicts[c][canonBits(v)]; ok {
			dst[c] = code
		} else {
			dst[c] = k.card[c] // unseen sentinel
		}
	}
}

// encodeScratch interns x into buf — stack space for up to 16 features,
// heap past that — and returns the code slice. Small enough to inline, so
// the caller's buffer never escapes in the common case.
func (k *keyer) encodeScratch(x []float64, buf *[16]uint32) []uint32 {
	var codes []uint32
	if k.dim > len(buf) {
		codes = make([]uint32, k.dim)
	} else {
		codes = buf[:k.dim]
	}
	k.encode(x, codes)
	return codes
}

// packKey radix-packs a full code row.
func (k *keyer) packKey(codes []uint32) uint64 {
	key := uint64(0)
	for c, code := range codes {
		key += uint64(code) * k.stride[c]
	}
	return key
}

// packPrefix packs only the first n columns (the keepFirst marginal).
func (k *keyer) packPrefix(codes []uint32, n int) uint64 {
	key := uint64(0)
	for c := 0; c < n; c++ {
		key += uint64(codes[c]) * k.stride[c]
	}
	return key
}

// wildcardAt substitutes the wildcard digit for column c in a packed key.
func (k *keyer) wildcardAt(key uint64, codes []uint32, c int) uint64 {
	return key + uint64(k.card[c]+1-codes[c])*k.stride[c]
}

// wideKey appends the little-endian bytes of the first n codes to buf.
func wideKey(buf []byte, codes []uint32, n int) []byte {
	buf = buf[:0]
	for c := 0; c < n; c++ {
		buf = binary.LittleEndian.AppendUint32(buf, codes[c])
	}
	return buf
}

// wideWildcardAt patches the 4 bytes of column c to the wildcard sentinel.
func wideWildcardAt(buf []byte, c int) {
	binary.LittleEndian.PutUint32(buf[c*4:], wideWildcard)
}

// wideRestoreAt restores column c's code after a wildcard substitution.
func wideRestoreAt(buf []byte, codes []uint32, c int) {
	binary.LittleEndian.PutUint32(buf[c*4:], codes[c])
}

// SupportSet is the non-zero-support membership index of A.4 detached from
// any estimator: the engine probes it to decide whether a hypothetical
// feature combination occurs in the training data at all (the freq→forest
// fallback check) without training a regressor first.
type SupportSet struct {
	keyer
	set  map[uint64]struct{}
	setW map[string]struct{}
}

// NewSupportSet indexes the exact feature combinations of the given frame
// rows.
func NewSupportSet(f *Frame, rows []int) *SupportSet {
	f.Intern()
	s := &SupportSet{keyer: newKeyer(f)}
	codes := make([]uint32, f.dim)
	// The maps grow as combinations appear instead of being sized for
	// len(rows) of them: discrete rows repeat (German-Syn: a few hundred
	// combinations in 5,000 rows), and the engine caches this set, so a
	// row-count hint is empty slots retained per estimator set.
	if s.packed() {
		s.set = make(map[uint64]struct{})
		for _, r := range rows {
			f.codeRow(r, codes)
			s.set[s.packKey(codes)] = struct{}{}
		}
		return s
	}
	s.setW = make(map[string]struct{})
	buf := make([]byte, 0, 4*f.dim)
	for _, r := range rows {
		f.codeRow(r, codes)
		buf = wideKey(buf, codes, f.dim)
		if _, ok := s.setW[string(buf)]; !ok {
			s.setW[string(buf)] = struct{}{}
		}
	}
	return s
}

// Has reports whether the exact combination x occurs in the indexed rows.
func (s *SupportSet) Has(x []float64) bool {
	var stack [16]uint32
	codes := s.encodeScratch(x, &stack)
	if s.packed() {
		_, ok := s.set[s.packKey(codes)]
		return ok
	}
	var bstack [64]byte
	buf := wideKey(bstack[:0], codes, s.dim)
	_, ok := s.setW[string(buf)]
	return ok
}

// Len returns the number of distinct indexed combinations.
func (s *SupportSet) Len() int {
	if s.packed() {
		return len(s.set)
	}
	return len(s.setW)
}
