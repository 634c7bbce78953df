package ml

import (
	"context"

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
// dense ids, all filled in first-seen row order. The index keeps one exact id
// per training row and, per level, the level id of each exact id, so a fit
// hashes nothing: it adds each row's label to its exact cell and through
// those tables to one cell per level.
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
	ids    codeColumn // per training row, its exact id
	up     []int32    // up[e*(len(levels)-1)+l-1]: the cell of exact id e in level l > 0
	n      []int32    // training rows per cell
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

	// The exact level, row by row; each new combination keeps its code tuple
	// and every row counts towards its exact cell.
	x.ids.narrow = make([]uint8, len(rows))
	codes := make([]uint32, fr.dim)
	var tuples []uint32
	for i, r := range rows {
		for c := range codes {
			codes[c] = fr.codes[c].at(r)
		}
		id, fresh := x.levels[0].add(codes)
		if fresh {
			tuples = append(tuples, codes...)
			x.n = append(x.n, 0)
		}
		x.ids.set(i, uint32(id))
		x.n[id]++
	}

	// The other levels, over the exact combinations in id order — which is
	// first-seen row order, so their ids are in first-seen row order too. Each
	// level's cells follow the previous level's, so a new id is a new last cell.
	nb, ne := len(x.levels)-1, x.levels[0].n
	x.off = make([]int, len(x.levels))
	x.up = make([]int32, ne*nb)
	for l := 1; l <= nb; l++ {
		x.off[l] = len(x.n)
		for e := range ne {
			id, fresh := x.levels[l].add(tuples[e*fr.dim : (e+1)*fr.dim])
			if fresh {
				x.n = append(x.n, 0)
			}
			c := x.off[l] + int(id)
			x.up[e*nb+l-1] = int32(c)
			x.n[c] += x.n[e]
		}
	}
	return x
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
// Each shard of plan adds its rows' labels in row order, the shards run
// across at most workers goroutines, and their partial sums fold in shard
// order: the addends and their order are those of fitting each shard apart
// and merging the parts in plan order, so the model is a pure function of
// (index, y, plan), independent of the worker count. A plan of fewer than
// two shards is one pass over all rows.
func (x *FreqIndex) Fit(y []float64, plan shard.Plan, workers int) *FreqEstimator {
	f := &FreqEstimator{ix: x, sums: make([]float64, len(x.n))}
	if plan.Shards() <= 1 {
		x.add(f.sums, y, 0)
		return f
	}
	parts := make([][]float64, plan.Shards())
	// The background context is deliberate: fitting is not cancellable
	// mid-shard (a partially folded model would poison the shared cache), and
	// callers observe their contexts between estimator fits.
	_ = shard.Run(context.Background(), plan, workers, func(_, s, lo, hi int) error {
		if s == 0 {
			parts[s] = f.sums // 0 + shard 0's sum is its sum: add in place
		} else if lo < hi {
			parts[s] = make([]float64, len(x.n))
		}
		x.add(parts[s], y[lo:hi], lo)
		return nil
	})
	// A running sum from +0 is never -0, so adding a shard's zero to a cell
	// it never touched leaves the cell's bits alone.
	for _, part := range parts[1:] {
		for c, v := range part {
			f.sums[c] += v
		}
	}
	return f
}

// add adds the labels y of the indexed rows from lo on to their cells in
// sums, in row order.
func (x *FreqIndex) add(sums, y []float64, lo int) {
	hi := lo + len(y)
	if x.ids.wide != nil {
		addRows(sums, y, x.ids.wide[lo:hi], x.up, len(x.levels)-1)
	} else {
		addRows(sums, y, x.ids.narrow[lo:hi], x.up, len(x.levels)-1)
	}
}

// addRows adds y[i] to the exact cell ids[i] — the first cells are the exact
// level's, in id order — and to its cell in each of the nb other levels.
func addRows[I uint8 | uint32](sums, y []float64, ids []I, up []int32, nb int) {
	for i, e := range ids {
		yy := y[i]
		sums[e] += yy
		for _, c := range up[int(e)*nb : (int(e)+1)*nb] {
			sums[c] += yy
		}
	}
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
	ix   *FreqIndex
	sums []float64 // per cell of ix
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

// Support returns the number of distinct feature combinations observed; the
// engine uses it to decide between the frequency estimator and a forest.
func (f *FreqEstimator) Support() int { return f.ix.Len() }

// SupportOf returns the number of training rows exactly matching x.
func (f *FreqEstimator) SupportOf(x []float64) int {
	var buf [16]uint32
	if c, ok := f.ix.cell(0, f.ix.encode(x, &buf)); ok {
		return int(f.ix.n[c])
	}
	return 0
}
