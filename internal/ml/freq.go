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
// Keys are packed integer codes, not formatted strings: each feature value
// is interned to a small per-column code by the training frame, and a full
// combination radix-packs into one uint64 (with a byte-string fallback when
// the column cardinalities overflow 64 bits — see keyer). Backoff keys are
// O(1) digit substitutions of the exact key, so fitting costs O(dim) per
// row instead of the O(dim²) string joins of the formatted-key design.
// Grouping is by exact float64 value (canonical bits): the engine only
// selects this estimator for discrete features, where that matches the
// historical 12-significant-digit string keys; forcing it onto continuous
// features no longer merges values that agreed only after 'g'-12 rounding.
type FreqEstimator struct {
	keyer
	keepFirst int // the first keepFirst features are never wildcarded

	// Packed-key index (stride != nil).
	exact     map[uint64]*cell
	backoff   []map[uint64]*cell // backoff[i]: key with feature i wildcarded
	firstOnly map[uint64]*cell   // key over the first keepFirst features only

	// Wide-key index (collision-safe fallback past 64 bits).
	exactW     map[string]*cell
	backoffW   []map[string]*cell
	firstOnlyW map[string]*cell

	global cell
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
	fr.Intern()
	dim := fr.dim
	if keepFirst > dim {
		keepFirst = dim
	}
	f := &FreqEstimator{keyer: newKeyer(fr), keepFirst: keepFirst}
	if f.packed() {
		f.fitPacked(fr, rows, y)
	} else {
		f.fitWide(fr, rows, y)
	}
	for _, yy := range y {
		f.global.sum += yy
		f.global.n++
	}
	return f
}

func (f *FreqEstimator) fitPacked(fr *Frame, rows []int, y []float64) {
	// Like the support set's, the exact index grows with the combinations
	// seen; sized for len(rows) it retained ~140 KB of empty slots per cached
	// model fitted on 5,000 discrete rows.
	f.exact = make(map[uint64]*cell)
	f.backoff = make([]map[uint64]*cell, f.dim)
	for i := f.keepFirst; i < f.dim; i++ {
		f.backoff[i] = make(map[uint64]*cell)
	}
	f.firstOnly = make(map[uint64]*cell)
	codes := make([]uint32, f.dim)
	for ri, r := range rows {
		fr.codeRow(r, codes)
		key := f.packKey(codes)
		addCell(f.exact, key, y[ri])
		for i := f.keepFirst; i < f.dim; i++ {
			addCell(f.backoff[i], f.wildcardAt(key, codes, i), y[ri])
		}
		if f.keepFirst > 0 {
			addCell(f.firstOnly, f.packPrefix(codes, f.keepFirst), y[ri])
		}
	}
}

func (f *FreqEstimator) fitWide(fr *Frame, rows []int, y []float64) {
	f.exactW = make(map[string]*cell)
	f.backoffW = make([]map[string]*cell, f.dim)
	for i := f.keepFirst; i < f.dim; i++ {
		f.backoffW[i] = make(map[string]*cell)
	}
	f.firstOnlyW = make(map[string]*cell)
	codes := make([]uint32, f.dim)
	buf := make([]byte, 0, 4*f.dim)
	for ri, r := range rows {
		fr.codeRow(r, codes)
		buf = wideKey(buf, codes, f.dim)
		addCellW(f.exactW, buf, y[ri])
		for i := f.keepFirst; i < f.dim; i++ {
			wideWildcardAt(buf, i)
			addCellW(f.backoffW[i], buf, y[ri])
			wideRestoreAt(buf, codes, i)
		}
		if f.keepFirst > 0 {
			addCellW(f.firstOnlyW, buf[:4*f.keepFirst], y[ri])
		}
	}
}

func addCell(m map[uint64]*cell, k uint64, y float64) {
	c := m[k]
	if c == nil {
		c = &cell{}
		m[k] = c
	}
	c.sum += y
	c.n++
}

func addCellW(m map[string]*cell, k []byte, y float64) {
	c := m[string(k)] // no allocation: compiler-optimized byte-slice lookup
	if c == nil {
		c = &cell{}
		m[string(k)] = c
	}
	c.sum += y
	c.n++
}

// Predict returns the empirical conditional mean for x, backing off in
// order: exact match, single-feature wildcards over the non-protected
// features, the protected-features-only marginal, and finally the global
// mean. It is allocation-free for feature counts up to 16.
func (f *FreqEstimator) Predict(x []float64) float64 {
	var stack [16]uint32
	codes := f.encodeScratch(x, &stack)
	if f.packed() {
		return f.predictPacked(codes)
	}
	return f.predictWide(codes)
}

func (f *FreqEstimator) predictPacked(codes []uint32) float64 {
	key := f.packKey(codes)
	if c, ok := f.exact[key]; ok {
		return c.mean()
	}
	var sum float64
	var n int
	for i := f.keepFirst; i < f.dim; i++ {
		if c, ok := f.backoff[i][f.wildcardAt(key, codes, i)]; ok {
			sum += c.mean()
			n++
		}
	}
	if n > 0 {
		return sum / float64(n)
	}
	if f.keepFirst > 0 {
		if c, ok := f.firstOnly[f.packPrefix(codes, f.keepFirst)]; ok {
			return c.mean()
		}
	}
	return f.global.mean()
}

func (f *FreqEstimator) predictWide(codes []uint32) float64 {
	var bstack [64]byte
	buf := wideKey(bstack[:0], codes, f.dim)
	if c, ok := f.exactW[string(buf)]; ok {
		return c.mean()
	}
	var sum float64
	var n int
	for i := f.keepFirst; i < f.dim; i++ {
		wideWildcardAt(buf, i)
		if c, ok := f.backoffW[i][string(buf)]; ok {
			sum += c.mean()
			n++
		}
		wideRestoreAt(buf, codes, i)
	}
	if n > 0 {
		return sum / float64(n)
	}
	if f.keepFirst > 0 {
		if c, ok := f.firstOnlyW[string(buf[:4*f.keepFirst])]; ok {
			return c.mean()
		}
	}
	return f.global.mean()
}

// Support returns the number of distinct feature combinations observed; the
// engine uses it to decide between the frequency estimator and a forest.
func (f *FreqEstimator) Support() int {
	if f.packed() {
		return len(f.exact)
	}
	return len(f.exactW)
}

// SupportOf returns the number of training rows exactly matching x.
func (f *FreqEstimator) SupportOf(x []float64) int {
	var stack [16]uint32
	codes := f.encodeScratch(x, &stack)
	if f.packed() {
		if c, ok := f.exact[f.packKey(codes)]; ok {
			return c.n
		}
		return 0
	}
	var bstack [64]byte
	buf := wideKey(bstack[:0], codes, f.dim)
	if c, ok := f.exactW[string(buf)]; ok {
		return c.n
	}
	return 0
}
