package ml

import (
	"context"
	"math"
	"slices"

	"hyper/internal/relation"
	"hyper/internal/shard"
)

// FreqIndex is the label-independent half of the exact conditional-frequency
// estimator of Appendix A.4: it indexes the feature combinations that
// actually occur in the training rows ("non-zero support"), which depend on
// the frame and the rows alone. The engine builds one per estimator set and
// fits every label of the set on it (FreqIndex.Fit); the index answers the
// freq→forest fallback probe itself (Has), and every FreqEstimator fitted on
// it shares it read-only.
//
// Keys are interned codes, not formatted strings: each feature value is
// interned to a small per-column code by the training frame, and each level
// of the index — the exact combination, each single-feature wildcard, the
// protected prefix — is a relation.TupleIndex giving the level's code tuples
// dense ids, all in first-seen row order; the exact level reads each feature
// column once, into the training rows' packed keys. The index
// keeps one exact id per training row and, per level, the level cell of each
// exact id, so a fit hashes nothing: through those tables it rolls the exact
// cells up (integer labels) or adds each label to one cell per level.
// Grouping is by exact float64 value (canonical bits): the engine only
// selects this estimator for discrete features, where that matches the
// historical 12-significant-digit string keys; forcing it onto continuous
// features no longer merges values that agreed only after 'g'-12 rounding.
type FreqIndex struct {
	dicts     []dict   // the frame's per-column dictionaries ...
	card      []uint32 // ... and cardinalities
	keepFirst int      // the first keepFirst features are never wildcarded

	// levels[0] is the exact combination, levels[1+i] wildcards feature
	// keepFirst+i, then (keepFirst > 0) the first keepFirst features alone,
	// and last the empty key, whose one cell holds every row: the global
	// mean. A model's cells are the levels' cells end to end, level l
	// starting at off[l].
	levels []index
	off    []int
	ids    relation.Codes // per training row, its exact id
	up     []int32        // up[e*(len(levels)-1)+l-1]: the cell of exact id e in level l > 0
	n      []int32        // training rows per cell
}

// encode interns the raw feature vector v into buf — stack space for up to
// 16 features, heap past that — and returns the code slice. A value never
// seen at frame construction gets its column's unseen code card[c]: it can
// match no training key, which is exactly the semantics of zero support.
func (x *FreqIndex) encode(v []float64, buf *[16]uint32) []uint32 {
	codes := buf[:0]
	if len(x.card) > len(buf) {
		codes = make([]uint32, 0, len(x.card))
	}
	for c, f := range v {
		code, ok := x.dicts[c][canonBits(f)]
		if !ok {
			code = x.card[c]
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
}

// newIndex returns an empty level over a frame with the given cardinalities.
// rows only decides whether the level is a flat table (a key space no larger
// than the rows to be indexed); a map grows with the combinations seen, since
// discrete rows repeat and a map sized for rows retained ~140 KB of empty
// slots per cached model fitted on 5,000 of them.
func newIndex(card []uint32, width, wild, rows int) index {
	alphabet := make([]int, width)
	for c := range alphabet {
		alphabet[c] = int(card[c]) + 1
	}
	if wild >= 0 {
		alphabet[wild] = 1
	}
	return index{ids: relation.NewTupleIndex(alphabet, rows), width: width, wild: wild}
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

// add indexes the code row and reports whether its level key is new.
func (x *index) add(codes []uint32) (id int32, fresh bool) {
	id, _ = x.id(codes, true)
	if int(id) < x.n {
		return id, false
	}
	x.n++
	return id, true
}

// NewFreqIndex indexes the feature combinations of the frame rows selected
// by rows; labels passed to Fit are parallel to rows. The first keepFirst
// features are protected from backoff: the engine places the update
// attributes first in the feature vector, and predictions are made at
// hypothetical values of exactly those features — a backoff that wildcards
// them would erase the update and silently return a no-effect answer for
// zero-support combinations. With keepFirst set, backoff generalizes only
// over the conditioning features.
func NewFreqIndex(fr *Frame, rows []int, keepFirst int) *FreqIndex {
	fr.Intern()
	keepFirst = min(keepFirst, fr.dim)
	x := &FreqIndex{dicts: fr.dicts, card: fr.card, keepFirst: keepFirst}
	x.levels = append(x.levels, newIndex(fr.card, fr.dim, -1, len(rows)))
	for i := keepFirst; i < fr.dim; i++ {
		x.levels = append(x.levels, newIndex(fr.card, fr.dim, i, len(rows)))
	}
	if keepFirst > 0 {
		x.levels = append(x.levels, newIndex(fr.card, keepFirst, -1, len(rows)))
	}
	x.levels = append(x.levels, newIndex(fr.card, 0, -1, len(rows)))
	x.grow(&FreqIndex{}, fr, rows)
	return x
}

// Extend returns NewFreqIndex(fr, rows, x's keepFirst) built from x, or
// false when fr's alphabets are not x's. fr must extend x's frame (its first
// rows are that frame's rows) and rows must begin with the rows x indexes.
// Codes, exact ids and level ids are given in first-seen row order, so x's
// are a prefix of the full build's: only the rows past x's and the
// combinations they add are indexed, and counts, cell offsets and each exact
// id's level cells are recomputed over the combinations, never the rows. A
// grown alphabet builds fresh: a value x's frame never held would take the
// code x reserves for unseen values. The levels read through x's frozen ones
// (relation.TupleIndex.Fork).
func (x *FreqIndex) Extend(fr *Frame, rows []int) (*FreqIndex, bool) {
	fr.Intern()
	if len(rows) < x.ids.Len() || !slices.Equal(fr.card, x.card) {
		return nil, false
	}
	y := &FreqIndex{dicts: fr.dicts, card: fr.card, keepFirst: x.keepFirst, levels: slices.Clone(x.levels)}
	for l := range y.levels {
		y.levels[l].ids = x.levels[l].ids.Fork()
	}
	y.grow(x, fr, rows)
	return y, true
}

// grow makes x, whose levels hold prev's keys (forks of prev's, or empty
// when prev is), the index of rows, which begin with prev's. The other levels
// take the exact combinations the rows past prev's add in id order, which is
// first-seen row order, and their counts are summed from the exact counts.
func (x *FreqIndex) grow(prev *FreqIndex, fr *Frame, rows []int) {
	nb, oldExact := len(x.levels)-1, x.levels[0].n
	x.ids = prev.ids.Grow(len(rows))
	x.n = append(make([]int32, 0, oldExact), prev.n[:oldExact]...)
	tuples := x.indexExact(fr, rows, prev.ids.Len())

	ne := x.levels[0].n
	x.off = make([]int, len(x.levels))
	x.up = make([]int32, ne*nb)
	ids := make([]int32, ne) // exact id -> level id
	for l := 1; l <= nb; l++ {
		for e := range oldExact {
			ids[e] = prev.up[e*nb+l-1] - int32(prev.off[l])
		}
		for e := oldExact; e < ne; e++ {
			ids[e], _ = x.levels[l].add(tuples[(e-oldExact)*fr.dim : (e-oldExact+1)*fr.dim])
		}
		x.off[l] = len(x.n)
		x.n = append(x.n, make([]int32, x.levels[l].n)...)
		for e, id := range ids {
			c := x.off[l] + int(id)
			x.up[e*nb+l-1] = int32(c)
			x.n[c] += x.n[e]
		}
	}
}

// indexExact gives the frame rows rows[from:] their exact ids, counts them
// in their exact cells and returns the code tuples of the combinations they
// add, in id order. Each feature column is read once over the rows into
// their radix-packed keys, then one pass in row order gives the keys ids, so
// ids stay in first-seen row order; past 64 bits a row keys its code bytes.
func (x *FreqIndex) indexExact(fr *Frame, rows []int, from int) []uint32 {
	exact, sel := &x.levels[0], rows[from:]
	keys, stride := make([]uint64, len(sel)), exact.ids.Strides()
	for c := range stride {
		fr.addKeys(c, keys, sel, stride[c])
	}
	codes := make([]uint32, fr.dim)
	var tuples []uint32
	for i, r := range sel {
		var id int32
		if stride != nil {
			id, _ = exact.ids.KeyID(keys[i], true)
		} else {
			for c := range codes {
				codes[c] = fr.code(c, r)
			}
			id, _ = exact.ids.ID(codes, true)
		}
		if int(id) == exact.n { // ids come in first-seen order: a new one is the next
			exact.n++
			x.n = append(x.n, 0)
			for c := range fr.dim {
				tuples = append(tuples, fr.code(c, r))
			}
		}
		x.ids.Set(from+i, uint32(id))
		x.n[id]++
	}
	return tuples
}

// Has reports whether the exact combination v occurs in the indexed rows.
func (x *FreqIndex) Has(v []float64) bool {
	var buf [16]uint32
	_, ok := x.levels[0].id(x.encode(v, &buf), false)
	return ok
}

// Len returns the number of distinct indexed combinations.
func (x *FreqIndex) Len() int { return x.levels[0].n }

// Fit returns the estimator of the labels y, parallel to the indexed rows.
// Labels that sum exactly in any order (exactSums) go to their exact cells,
// which then roll up into the other levels. Other labels sum per row and
// level: each shard of plan adds its rows' labels in row order across at most
// workers goroutines, and the partial sums fold in shard order, as fitting
// the shards apart and merging them in plan order did. Either way the model
// is a pure function of (index, y, plan), independent of the worker count.
func (x *FreqIndex) Fit(y []float64, plan shard.Plan, workers int) *FreqEstimator {
	f := &FreqEstimator{ix: x, sums: make([]float64, len(x.n)), bound: integerBound(y, 0)}
	if exactSums(f.bound, len(y)) {
		x.addExact(f.sums, y, 0)
	} else {
		x.fitRows(f.sums, y, plan, workers)
	}
	return f
}

// fitRows adds the labels y to sums, all zero, per row and level, by shard.
func (x *FreqIndex) fitRows(sums, y []float64, plan shard.Plan, workers int) {
	nb := len(x.levels) - 1
	if plan.Shards() <= 1 {
		x.add(sums, y, 0, nb)
		return
	}
	parts := make([][]float64, plan.Shards())
	// The background context is deliberate: fitting is not cancellable
	// mid-shard (a partially folded model would poison the shared cache), and
	// callers observe their contexts between estimator fits.
	_ = shard.Run(context.Background(), plan, workers, func(_, s, lo, hi int) error {
		if s == 0 {
			parts[s] = sums // 0 + shard 0's sum is its sum: add in place
		} else if lo < hi {
			parts[s] = make([]float64, len(x.n))
		}
		x.add(parts[s], y[lo:hi], lo, nb)
		return nil
	})
	// A running sum from +0 is never -0, so adding a shard's zero to a cell
	// it never touched leaves the cell's bits alone.
	for _, part := range parts[1:] {
		for c, v := range part {
			sums[c] += v
		}
	}
}

// add adds the labels y of the indexed rows from lo on to their exact cells
// in sums, in row order — the first cells are the exact level's, in id order
// — and to their cells in the first nb other levels.
func (x *FreqIndex) add(sums, y []float64, lo, nb int) {
	stride := len(x.levels) - 1
	for i, yy := range y {
		e := int(x.ids.At(lo + i))
		sums[e] += yy
		for _, c := range x.up[e*stride : e*stride+nb] {
			sums[c] += yy
		}
	}
}

// addExact adds the labels y of the indexed rows from lo on to their exact
// cells in sums, then each exact cell to its cell in every other level, which
// must hold zero.
func (x *FreqIndex) addExact(sums, y []float64, lo int) {
	nb := len(x.levels) - 1
	x.add(sums, y, lo, 0)
	for e := range x.levels[0].n {
		for _, c := range x.up[e*nb : (e+1)*nb] {
			sums[c] += sums[e]
		}
	}
}

// integerBound returns the largest |v| over y and m when every v is an
// integer below 2^53, and -1 otherwise.
func integerBound(y []float64, m float64) float64 {
	for _, v := range y {
		a := math.Abs(v)
		if !(a < 1<<53) || a != float64(int64(a)) {
			return -1
		}
		if a > m {
			m = a
		}
	}
	return m
}

// exactSums reports whether labels of integerBound bound sum exactly over
// rows rows in any order: every partial sum is an integer below 2^53.
func exactSums(bound float64, rows int) bool {
	return bound >= 0 && bound*float64(rows) < 1<<53
}

// Extend returns the estimator fitted on ix, an index extending f's
// (FreqIndex.Extend), for f's labels followed by y, the labels of the rows ix
// adds — and false unless every label is an integer and the largest |label|
// times ix's rows is below 2^53. Then every partial sum of every cell, in any
// order of addition, is an integer below 2^53 and so exact: the cells are
// those of Fit over all the labels under any shard plan, and only y is added.
// Other labels refuse, since re-associating their sums can change bits.
func (f *FreqEstimator) Extend(ix *FreqIndex, y []float64) (*FreqEstimator, bool) {
	old := f.ix.ids.Len()
	if f.bound < 0 || len(ix.levels) != len(f.ix.levels) || ix.ids.Len() != old+len(y) {
		return nil, false
	}
	bound := integerBound(y, f.bound)
	if !exactSums(bound, ix.ids.Len()) {
		return nil, false
	}
	return f.extend(ix, y, bound), true
}

// extend is Extend without its guard: f's exact cells, which are ix's first,
// plus the labels y of the rows past f's, rolled up into ix's other levels.
func (f *FreqEstimator) extend(ix *FreqIndex, y []float64, bound float64) *FreqEstimator {
	g := &FreqEstimator{ix: ix, sums: make([]float64, len(ix.n)), bound: bound}
	copy(g.sums, f.sums[:f.ix.Len()])
	ix.addExact(g.sums, y, f.ix.ids.Len())
	return g
}

// ShardMergeable reports whether the named estimator kind ("freq",
// "forest", "linear", ...) fits per shard with an exact merge. Only the
// frequency estimator does: its cells are sums of per-row labels, so shard
// partials folded in plan order reconstruct one fit exactly, while tree,
// forest and linear fits (splits, normal equations) are global.
func ShardMergeable(kind string) bool { return kind == "freq" }

// FreqEstimator is the exact conditional-frequency estimator of Appendix
// A.4 fitted on a FreqIndex: per cell of the index, the sum of its rows'
// labels. It predicts the empirical conditional mean E[y | X=x]; feature
// combinations never seen fall back first to partial matches via
// per-feature backoff, then to the global mean. It is preferred by the
// engine when the conditioning domain is small and discrete, and it is the
// reason runtime stays linear in the database size rather than exponential
// in |Dom(C)|.
type FreqEstimator struct {
	ix    *FreqIndex
	sums  []float64 // per cell of ix
	bound float64   // integerBound of the labels
}

// FitFreqFrame builds the support index over the frame rows selected by rows
// and fits y, parallel to rows, on it in one pass.
func FitFreqFrame(fr *Frame, rows []int, y []float64, keepFirst int) *FreqEstimator {
	return NewFreqIndex(fr, rows, keepFirst).Fit(y, shard.Plan{}, 1)
}

// mean is the mean label of cell c, which holds at least one row.
func (f *FreqEstimator) mean(c int) float64 { return f.sums[c] / float64(f.ix.n[c]) }

// cell returns the cell of the code row's key in level l, if it has one.
func (x *FreqIndex) cell(l int, codes []uint32) (int, bool) {
	id, ok := x.levels[l].id(codes, false)
	return x.off[l] + int(id), ok
}

// Predict returns the empirical conditional mean for x, backing off in
// order: exact match, single-feature wildcards over the non-protected
// features, the protected-features-only marginal, and finally the global
// mean. It is allocation-free for feature counts up to 16.
func (f *FreqEstimator) Predict(x []float64) float64 {
	ix := f.ix
	var buf [16]uint32
	codes := ix.encode(x, &buf)
	if c, ok := ix.cell(0, codes); ok {
		return f.mean(c)
	}
	backoff := len(ix.card) - ix.keepFirst // levels 1..backoff
	var sum float64
	var n int
	for l := 1; l <= backoff; l++ {
		if c, ok := ix.cell(l, codes); ok {
			sum += f.mean(c)
			n++
		}
	}
	if n > 0 {
		return sum / float64(n)
	}
	for l := backoff + 1; l < len(ix.levels); l++ { // the protected prefix, then every row
		if c, ok := ix.cell(l, codes); ok {
			return f.mean(c)
		}
	}
	return 0 // no rows
}
