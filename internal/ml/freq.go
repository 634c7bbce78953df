package ml

// FreqEstimator is the exact conditional-frequency estimator of Appendix
// A.4: it indexes the feature combinations that actually occur in the data
// ("non-zero support") and predicts the empirical conditional mean
// E[y | X=x]. Feature combinations never seen fall back first to partial
// matches via per-feature backoff, then to the global mean. It is preferred
// by the engine when the conditioning domain is small and discrete, and it
// is the reason runtime stays linear in the database size rather than
// exponential in |Dom(C)|.
//
// Keys are interned codes, not formatted strings: each feature value is
// interned to a small per-column code by the training frame, and each level
// of the index — the exact combination, each single-feature wildcard, the
// protected prefix — is a relation.TupleIndex giving the level's code tuples
// dense ids into a slice of cells. Fitting therefore hashes no value and
// allocates per distinct cell, not per row.
// Grouping is by exact float64 value (canonical bits): the engine only
// selects this estimator for discrete features, where that matches the
// historical 12-significant-digit string keys; forcing it onto continuous
// features no longer merges values that agreed only after 'g'-12 rounding.
type FreqEstimator struct {
	keyer
	keepFirst int // the first keepFirst features are never wildcarded

	exact     freqLevel
	backoff   []freqLevel // backoff[i]: feature keepFirst+i wildcarded
	firstOnly freqLevel   // the first keepFirst features only (keepFirst > 0)

	global cell
}

// freqLevel is one level of the index with its cells, addressed by id.
type freqLevel struct {
	index
	cells []cell
}

func (l *freqLevel) add(codes []uint32, r int, y float64) {
	id, fresh := l.index.add(codes, r)
	if fresh {
		l.cells = append(l.cells, cell{})
	}
	l.cells[id].sum += y
	l.cells[id].n++
}

func (l *freqLevel) lookup(codes []uint32) (*cell, bool) {
	id, ok := l.id(codes, false)
	if !ok {
		return nil, false
	}
	return &l.cells[id], true
}

type cell struct {
	sum float64
	n   int
}

func (c *cell) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return c.sum / float64(c.n)
}

// FitFreq builds the support index from (X, y).
func FitFreq(X [][]float64, y []float64) *FreqEstimator {
	return FitFreqKeep(X, y, 0)
}

// FitFreqKeep is FitFreq with the first keepFirst features protected from
// backoff. The engine places the update attributes first in the feature
// vector, and predictions are made at hypothetical values of exactly those
// features — a backoff that wildcards them would erase the update and
// silently return a no-effect answer for zero-support combinations. With
// keepFirst set, backoff generalizes only over the conditioning features.
func FitFreqKeep(X [][]float64, y []float64, keepFirst int) *FreqEstimator {
	f := FrameFromRows(X)
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	return FitFreqFrame(f, rows, y, keepFirst)
}

// FitFreqFrame builds the support index from the frame rows selected by
// rows; y is parallel to rows. The frame's interned codes are reused
// directly, so fitting does no value hashing at all.
func FitFreqFrame(fr *Frame, rows []int, y []float64, keepFirst int) *FreqEstimator {
	return fitFreq(fr, rows, y, keepFirst, false)
}

// fitFreq is FitFreqFrame; track keeps each id's first row for a shard merge.
func fitFreq(fr *Frame, rows []int, y []float64, keepFirst int, track bool) *FreqEstimator {
	fr.Intern()
	keepFirst = min(keepFirst, fr.dim)
	level := func(width, wild int) freqLevel {
		return freqLevel{index: newIndex(fr.card, width, wild, len(rows), track)}
	}
	f := &FreqEstimator{keyer: keyer{fr.dicts, fr.card}, keepFirst: keepFirst, exact: level(fr.dim, -1)}
	for i := keepFirst; i < fr.dim; i++ {
		f.backoff = append(f.backoff, level(fr.dim, i))
	}
	if keepFirst > 0 {
		f.firstOnly = level(keepFirst, -1)
	}
	codes := make([]uint32, fr.dim)
	for ri, r := range rows {
		fr.codeRow(r, codes)
		f.exact.add(codes, r, y[ri])
		for i := range f.backoff {
			f.backoff[i].add(codes, r, y[ri])
		}
		if keepFirst > 0 {
			f.firstOnly.add(codes, r, y[ri])
		}
	}
	for _, yy := range y {
		f.global.sum += yy
		f.global.n++
	}
	return f
}

// Predict returns the empirical conditional mean for x, backing off in
// order: exact match, single-feature wildcards over the non-protected
// features, the protected-features-only marginal, and finally the global
// mean. It is allocation-free for feature counts up to 16.
func (f *FreqEstimator) Predict(x []float64) float64 {
	var buf [16]uint32
	codes := f.encode(x, &buf)
	if c, ok := f.exact.lookup(codes); ok {
		return c.mean()
	}
	var sum float64
	var n int
	for i := range f.backoff {
		if c, ok := f.backoff[i].lookup(codes); ok {
			sum += c.mean()
			n++
		}
	}
	if n > 0 {
		return sum / float64(n)
	}
	if f.keepFirst > 0 {
		if c, ok := f.firstOnly.lookup(codes); ok {
			return c.mean()
		}
	}
	return f.global.mean()
}

// Support returns the number of distinct feature combinations observed; the
// engine uses it to decide between the frequency estimator and a forest.
func (f *FreqEstimator) Support() int { return f.exact.n }

// SupportOf returns the number of training rows exactly matching x.
func (f *FreqEstimator) SupportOf(x []float64) int {
	var buf [16]uint32
	if c, ok := f.exact.lookup(f.encode(x, &buf)); ok {
		return c.n
	}
	return 0
}
