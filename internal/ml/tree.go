package ml

import (
	"math"
	"math/bits"
	"slices"

	"hyper/internal/stats"
)

// TreeParams configures CART regression-tree induction.
type TreeParams struct {
	MaxDepth      int // maximum tree depth (root is depth 0)
	MinLeaf       int // minimum samples per leaf
	MaxFeatures   int // features tried per split; 0 means all
	MaxThresholds int // candidate thresholds per feature; 0 means 32
}

// DefaultTreeParams mirrors common regression-tree defaults.
func DefaultTreeParams() TreeParams {
	return TreeParams{MaxDepth: 12, MinLeaf: 5, MaxThresholds: 32}
}

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64
	leaf      bool
}

// Tree is a fitted CART regression tree (variance-reduction splits).
type Tree struct {
	root *treeNode
	dim  int
}

// frameView adapts a frame to a training sample: position p reads frame row
// sel[p] (identity when sel is nil). Feature access goes through the frame's
// contiguous column buffers, which is the access pattern tree induction
// wants (bestSplit scans one feature across all rows).
type frameView struct {
	fr  *Frame
	sel []int // position -> frame row; nil = identity
}

func (v frameView) at(pos, c int) float64 {
	if v.sel != nil {
		pos = v.sel[pos]
	}
	return v.fr.cols[c][pos]
}

// col returns feature c's contiguous column (indexed by frame row, not
// position; callers holding positions must map through rowOf).
func (v frameView) col(c int) []float64 {
	return v.fr.cols[c]
}

func (v frameView) rowOf(pos int) int {
	if v.sel == nil {
		return pos
	}
	return v.sel[pos]
}

// treeBuilder grows trees over one training set: every tree one
// FitForestFrame worker takes. Everything
// below the training-set fields is scratch, sized on the first search for
// up to n rows and reused by every later node, feature and tree, so
// induction allocates tree nodes and nothing else; a tree whose root is a
// leaf touches none of it. A search leaves every word of seen zero, so a
// reused builder starts each tree as a fresh one would.
type treeBuilder struct {
	X     frameView
	y     []float64
	p     TreeParams
	rng   *stats.RNG // the current tree's feature draws
	dim   int
	n     int // the most rows a root holds
	ranks *rankStore

	rows  []int // a forest worker's bootstrap sample, redrawn per tree
	feats []int // the current node's candidate features

	// part and best hold a split's rows as splitGain classifies them: the
	// left side from the front in row order, the right side from the back,
	// so reversed. part is the candidate splitGain last evaluated, best the
	// node's winner so far: bestSplit swaps them when a candidate wins.
	part, best []int
	// Per node: z[i] = y[rows[i]] - node mean.
	z []float64
	// Per (node, feature) of a column with more than MaxThresholds+1
	// distinct values: the rank of each node row, a bitset marking the
	// ranks that occur (all zero between searches), and each rank's bin.
	rk    []uint32
	seen  []uint64
	binOf []int32
	// Per (node, feature) of any other column: the rows, sum of z and sum
	// of z^2 of each rank.
	rn     []int
	r1, r2 []float64
	// Per (node, feature): the ranks the node holds, ascending, and the sum
	// of z and sum of z^2 of each bin (bin j holds the values that first go
	// left at threshold j; the last bin never goes left). The bins' row
	// counts are in the feature's splits.left.
	present []uint32
	s1, s2  []float64
	// Per node: the i-th candidate feature's thresholds and gains.
	splits      []featureSplits
	searches    int // (node, feature) searches run
	candidates  int // thresholds they held
	exactPasses int // splitGain passes they needed
}

// featureSplits is one candidate feature's part of a node's split search:
// its thresholds ascending, the rows left of each (the bin counts until
// approxGains sums them), and each one's approximate gain.
type featureSplits struct {
	thr    []float64
	left   []int
	approx []float64
}

func newTreeBuilder(fr *Frame, sel []int, y []float64, n int, p TreeParams, rng *stats.RNG) *treeBuilder {
	if p.MaxThresholds <= 0 {
		p.MaxThresholds = 32
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 1
	}
	return &treeBuilder{X: frameView{fr: fr, sel: sel}, y: y, p: p, rng: rng, dim: fr.dim, n: n, ranks: fr.rankStore()}
}

// grow sizes the search scratch; the first search calls it.
func (b *treeBuilder) grow() {
	n, k, maxCard := b.n, b.p.MaxThresholds, b.ranks.maxCard
	b.feats = make([]int, 0, b.dim)
	b.part, b.best, b.z = make([]int, n), make([]int, n), make([]float64, n)
	b.rk, b.seen, b.binOf = make([]uint32, n), make([]uint64, (maxCard+63)/64), make([]int32, maxCard)
	b.rn, b.r1, b.r2 = make([]int, k+1), make([]float64, k+1), make([]float64, k+1)
	b.present = make([]uint32, 0, min(n, maxCard))
	b.s1, b.s2 = make([]float64, k+1), make([]float64, k+1)
	b.splits = make([]featureSplits, b.dim)
	for i := range b.splits {
		b.splits[i] = featureSplits{thr: make([]float64, 0, k), left: make([]int, k+1), approx: make([]float64, k)}
	}
}

// fit grows a tree over rows, which it may reorder, drawing its feature
// subsets from rng.
func (b *treeBuilder) fit(rows []int, rng *stats.RNG) *Tree {
	b.rng = rng
	mean, sse := meanSSE(b.y, rows)
	return &Tree{dim: b.dim, root: b.build(rows, 0, mean, sse)}
}

// build grows the subtree over rows, whose labels have the given mean and
// SSE: meanSSE's values at the root, the winning splitGain pass's below it.
func (b *treeBuilder) build(rows []int, depth int, mean, sse float64) *treeNode {
	if len(rows) < 2*b.p.MinLeaf || (b.p.MaxDepth > 0 && depth >= b.p.MaxDepth) || sse <= 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}
	feat, thr, gain, l, r := b.bestSplit(rows, mean, sse)
	if gain <= 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}
	// The winner's pass left the rows in b.best, the right side reversed.
	// Copied back with it turned round, both sides keep the node's row
	// order, which the order-sensitive exact pass of the children depends
	// on, and which is the order splitGain accumulated l and r in. Both
	// sides reach MinLeaf: splitGain returns 0 otherwise.
	copy(rows, b.best[:len(rows)])
	slices.Reverse(rows[l.n:])
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      b.build(rows[:l.n], depth+1, l.mean, l.sse()),
		right:     b.build(rows[l.n:], depth+1, r.mean, r.sse()),
	}
}

// bestSplit returns the (feature, threshold) with the largest SSE reduction
// over the node's candidate features and, per feature, up to MaxThresholds
// midpoints between the distinct values the node holds — the first such
// pair in (feature, ascending threshold) order when several tie — with its
// gain and the label moments of its two sides, or feature -1 and gain 0
// when no split reduces the SSE.
//
// splitGain is the only arbiter: a candidate wins by g > bestGain on the
// value splitGain returns, in that iteration order. What this function adds
// is a filter that decides which candidates splitGain has to see. Per
// feature, one pass over the node's rows accumulates the count, sum of z and
// sum of z^2 of every threshold bin (z = y - node mean), and prefix and
// suffix sums over the bins give every threshold j its exact row counts and
// an approximate gain g~_j = parentSSE - sse(left) - sse(right) with
// sse(side) = sum z^2 - (sum z)^2 / n. Let g_j be what splitGain returns.
// Once every candidate feature has its g~:
//
//   - Counts are exact, so a threshold that leaves a side under MinLeaf is
//     known to have g_j = 0, which never beats bestGain >= 0: dropped.
//   - |g~_j - g_j| <= eps (splitEps), so with m the largest g~ of the node,
//     over all its candidate features, every threshold with g~_j < m - 2 eps
//     has g_j < g~_j + eps < m - eps <= g of the arg-max of g~: strictly
//     below a threshold that is evaluated, so it is not the first maximum.
//     Dropped.
//   - g~_j + eps <= bestGain means g_j <= bestGain: not an update. Dropped.
//
// The survivors go through splitGain in the original order, so the winner,
// its threshold bits and its gain bits are those of running splitGain on
// every candidate. The comparisons are written so that a NaN g~ survives.
// The winner's partition of rows is left in b.best.
func (b *treeBuilder) bestSplit(rows []int, mean, parentSSE float64) (feat int, thr, bestGain float64, l, r moments) {
	if b.z == nil {
		b.grow()
	}
	sumY2 := 0.0
	for i, row := range rows {
		v := b.y[row]
		sumY2 += v * v
		b.z[i] = v - mean
	}
	eps := splitEps(len(rows), sumY2)
	feats := b.candidateFeatures()
	top := math.Inf(-1)
	for i, f := range feats {
		s := &b.splits[i]
		b.binThresholds(rows, f, s)
		b.searches++
		b.candidates += len(s.thr)
		if len(s.thr) == 0 {
			continue
		}
		if g := b.approxGains(len(rows), parentSSE, s); g > top {
			top = g
		}
	}
	feat = -1
	for i, f := range feats {
		s := &b.splits[i]
		for j, t := range s.thr {
			g, nl := s.approx[j], s.left[j]
			if nl < b.p.MinLeaf || len(rows)-nl < b.p.MinLeaf || g < top-2*eps || g+eps <= bestGain {
				continue
			}
			b.exactPasses++
			if g, gl, gr := b.splitGain(rows, f, t, parentSSE); g > bestGain {
				feat, thr, bestGain, l, r = f, t, g, gl, gr
				b.part, b.best = b.best, b.part
			}
		}
	}
	return feat, thr, bestGain, l, r
}

// splitEps bounds |g~ - g| for a node of n rows whose labels have sum of
// squares sumY2, where g = parentSSE - m2L - m2R is splitGain's value and g~
// the bin-sum value of approxGains. Both estimate the same real number
// parentSSE - SSE(left) - SSE(right). With u = 2^-53, A = sumY2, and every
// bound to first order in u:
//
//   - Welford over a side of m rows. Write a_k = v_k - mean_{k-1}; the
//     computed running mean errs by e_k with
//     k|e_k| <= (k-1)|e_{k-1}| + 2u|a_k| + u|v_1 + ... + v_k|, hence
//     |e_k| <= u sqrt(A_side) (sqrt(m+1) + 4.83), using
//     sum_{k>=2} |a_k| <= sqrt(2 m SSE) and |v_1 + ... + v_k| <= sqrt(k A_side);
//     m2 errs by at most (m+3) u SSE + 2 max|e_k| sum_{k>=2} |a_k|
//     <= (4m + 14 sqrt(m) + 5) u A_side (SSE <= A_side). This is the
//     n kappa u of Chan, Golub and LeVeque (1983) with its constant written
//     out. Over the two sides: at most (4n + 14 sqrt(n) + 5) u A.
//   - The centred sums over a side. A prefix or suffix sum is a chain of at
//     most k additions per term, k <= n + MaxThresholds <= 2n (rows into
//     bins, bins into sums; both sides are accumulated, neither is obtained
//     by subtraction, so there is no cancellation term). binByRank's rows
//     go into ranks and ranks into bins, a longer chain than rows into
//     bins but not a longer worst case: a bin's rank sums partition its
//     rows, each rank holding one at least, so a term of a rank of c rows,
//     in a bin of r ranks and n_j rows, meets (c-1) + (r-1) <= n_j - 1
//     roundings before the bin total, no more than when the bin's rows are
//     added directly. So k, and eps below, still bound it. sum z^2 errs by
//     (k+1) u sum z^2, (sum z)^2/n by (2k+2) u sum z^2 (Cauchy-Schwarz),
//     their difference by u sum z^2 more, and rounding z = y - mean itself
//     moves the side's SSE by 2u sum z^2. sum z^2 over the node is its SSE
//     <= A, so over the two sides: at most (6n + 8) u A.
//   - The two subtractions from parentSSE <= A: at most 3u A for g, 3u A
//     for g~.
//
// That is (10n + 14 sqrt(n) + 19) u A; eps = 32 (n+4) u A is three times it
// and more, which also absorbs the rounding of A itself and every
// second-order term (n u < 2^-20 for any frame that fits in memory).
// Underflow adds at most n 2^-1074, nothing against eps >= 32 n u 1e-12:
// build only searches nodes whose SSE, a lower bound on A, exceeds 1e-12.
// When A is not finite, or so large that a sum of n squares could overflow,
// eps is +Inf and every threshold that passes MinLeaf takes the exact pass.
func splitEps(n int, sumY2 float64) float64 {
	scale := float64(n+4) * sumY2
	if !(scale <= math.MaxFloat64/8) {
		return math.Inf(1)
	}
	return scale * 32 / (1 << 53)
}

// candidateFeatures draws the node's feature subset into scratch: all
// features in order, or MaxFeatures of them drawn without replacement.
func (b *treeBuilder) candidateFeatures() []int {
	if b.p.MaxFeatures <= 0 || b.p.MaxFeatures >= b.dim || b.rng == nil {
		b.feats = b.feats[:0]
		for i := 0; i < b.dim; i++ {
			b.feats = append(b.feats, i)
		}
		return b.feats
	}
	b.feats = b.rng.SampleIndexesInto(b.feats, b.dim, b.p.MaxFeatures)
	return b.feats
}

// binThresholds writes feature f's candidate thresholds for the node into
// s.thr, and the row count, sum of z and sum of z^2 of each of their bins
// into s.left, b.s1 and b.s2 for approxGains.
//
// The candidates are the midpoints (d[i]+d[i+1])/2 of the node's distinct
// values d in ascending order — all of them when there are at most
// MaxThresholds, else the MaxThresholds at indexes i*len(mids)/MaxThresholds
// — where every NaN row counts as a distinct value of its own, ahead of the
// real ones (NaN never equals its neighbour). A NaN midpoint (next to a NaN
// row, or between -Inf and +Inf) takes no row left and is never a candidate,
// but it holds its place in the index arithmetic. The rest are written
// ascending.
//
// A column of at most MaxThresholds+1 distinct values (NaN counting as one)
// is binned in one pass over the node's rows, which sums them per rank
// (binByRank); any other column in two, which find the ranks present and
// then sum the rows per bin (binByBitset).
func (b *treeBuilder) binThresholds(rows []int, f int, s *featureSplits) {
	vals := b.ranks.vals[f]
	rank := b.ranks.rank[f*b.X.fr.rows : (f+1)*b.X.fr.rows]
	nanRank := uint32(len(vals)) // no such rank unless the column has NaN
	if n := len(vals); n > 0 && vals[n-1] != vals[n-1] {
		nanRank = uint32(n - 1)
	}
	if len(vals) <= b.p.MaxThresholds+1 {
		b.binByRank(rows, vals, rank, nanRank, s)
	} else {
		b.binByBitset(rows, vals, rank, nanRank, s)
	}
}

// binByRank bins a low-cardinality column: every row adds to its rank's
// count and sums, the ranks with a count are the values the node holds, and
// each rank's count and sums fold into its bin.
func (b *treeBuilder) binByRank(rows []int, vals []float64, rank []uint32, nanRank uint32, s *featureSplits) {
	rn, r1, r2 := b.rn[:len(vals)], b.r1[:len(vals)], b.r2[:len(vals)]
	clear(rn)
	clear(r1)
	clear(r2)
	for i, r := range rows {
		k, z := rank[b.X.rowOf(r)], b.z[i]
		rn[k]++
		r1[k] += z
		r2[k] += z * z
	}
	present, nans := b.present[:0], 0
	for k, c := range rn {
		if c > 0 {
			present = append(present, uint32(k))
		}
	}
	if int(nanRank) < len(rn) {
		nans = rn[nanRank]
	}
	b.present = present
	thr := b.thresholds(vals, present, nans, s)
	cnt, s1, s2 := b.bins(len(thr), s)
	j := 0
	for _, k := range present {
		j = binAt(vals[k], thr, j)
		cnt[j] += rn[k]
		s1[j] += r1[k]
		s2[j] += r2[k]
	}
}

// binByBitset bins any other column: the node's ranks are marked in the
// bitset and read back ascending, which gives the thresholds and each
// rank's bin, and then every row adds to its bin.
func (b *treeBuilder) binByBitset(rows []int, vals []float64, rank []uint32, nanRank uint32, s *featureSplits) {
	// The marks are read back a word at a time, clearing each word for the
	// next search. A node with too few rows to pay for a walk over the
	// column's words sorts its ranks instead and clears only the words they
	// marked.
	n, nans := len(rows), 0
	present, words := b.present[:0], b.seen[:(len(vals)+63)/64]
	for i, r := range rows {
		k := rank[b.X.rowOf(r)]
		b.rk[i] = k
		if k == nanRank {
			nans++
		}
		words[k/64] |= 1 << (k % 64)
	}
	if n*bits.Len(uint(n)) < len(words) {
		present = append(present, b.rk[:n]...)
		slices.Sort(present)
		present = slices.Compact(present)
		for _, k := range present {
			words[k/64] = 0
		}
	} else {
		for w, word := range words {
			if word == 0 {
				continue
			}
			words[w] = 0
			for ; word != 0; word &= word - 1 {
				present = append(present, uint32(w*64+bits.TrailingZeros64(word)))
			}
		}
	}
	b.present = present
	thr := b.thresholds(vals, present, nans, s)
	if len(thr) == 0 {
		return
	}
	j := 0
	for _, k := range present {
		j = binAt(vals[k], thr, j)
		b.binOf[k] = int32(j)
	}
	cnt, s1, s2 := b.bins(len(thr), s)
	for i, k := range b.rk[:n] {
		j, z := b.binOf[k], b.z[i]
		cnt[j]++
		s1[j] += z
		s2[j] += z * z
	}
}

// thresholds writes into s.thr, and returns, the candidates over d = nans
// NaN entries followed by the real values among vals[present[i]], where
// present holds the node's ranks ascending (NaN's, which ranks last, among
// them when nans > 0); mids[i] pairs d[i] with d[i+1].
func (b *treeBuilder) thresholds(vals []float64, present []uint32, nans int, s *featureSplits) []float64 {
	thr := s.thr[:0]
	real := len(present)
	if nans > 0 {
		real--
	}
	mids := nans + real - 1
	mid := func(i int) {
		if i < nans {
			return
		}
		if t := (vals[present[i-nans]] + vals[present[i-nans+1]]) / 2; t == t {
			thr = append(thr, t)
		}
	}
	if mids <= b.p.MaxThresholds {
		for i := 0; i < mids; i++ {
			mid(i)
		}
	} else {
		for i := 0; i < b.p.MaxThresholds; i++ {
			mid(i * mids / b.p.MaxThresholds)
		}
	}
	s.thr = thr
	return thr
}

// binAt returns the bin of value v, the first threshold v is <= to, given
// that no value below v was past bin j. It compares against the thresholds
// themselves: the midpoint of adjacent floats can round onto its upper
// neighbour, so positions alone do not decide it. NaN is <= nothing and
// lands in the last bin, which never goes left.
func binAt(v float64, thr []float64, j int) int {
	for j < len(thr) && !(v <= thr[j]) {
		j++
	}
	return j
}

// bins returns the row counts and sums of the k+1 bins of k thresholds,
// zeroed.
func (b *treeBuilder) bins(k int, s *featureSplits) (cnt []int, s1, s2 []float64) {
	cnt, s1, s2 = s.left[:k+1], b.s1[:k+1], b.s2[:k+1]
	clear(cnt)
	clear(s1)
	clear(s2)
	return cnt, s1, s2
}

// approxGains turns the bin counts and sums binThresholds left into, per
// threshold j, the exact row count left of it in s.left[j] (the rest of the
// n rows are right of it) and the approximate gain in s.approx[j]. It
// returns the largest approximate gain among thresholds both of whose sides
// reach MinLeaf (-Inf when there is none).
func (b *treeBuilder) approxGains(n int, parentSSE float64, s *featureSplits) float64 {
	k := len(s.thr)
	cnt, s1, s2, approx := s.left[:k+1], b.s1[:k+1], b.s2[:k+1], s.approx[:k]
	// Right of threshold j is bins j+1..k, summed from the right: approx[j]
	// holds the right side's SSE until the left side's is known.
	nR, sR, qR := 0, 0.0, 0.0
	for j := k - 1; j >= 0; j-- {
		nR += cnt[j+1]
		sR += s1[j+1]
		qR += s2[j+1]
		approx[j] = qR - sR*sR/float64(nR)
	}
	// Left of it is bins 0..j: prefix sums in place.
	top := math.Inf(-1)
	for j := 0; j < k; j++ {
		if j > 0 {
			cnt[j] += cnt[j-1]
			s1[j] += s1[j-1]
			s2[j] += s2[j-1]
		}
		if cnt[j] < b.p.MinLeaf || n-cnt[j] < b.p.MinLeaf {
			continue
		}
		sseL := s2[j] - s1[j]*s1[j]/float64(cnt[j])
		g := parentSSE - sseL - approx[j]
		approx[j] = g
		if g > top {
			top = g
		}
	}
	return top
}

// moments are what a Welford pass over a run of labels leaves: their count,
// mean and sum of squared deviations.
type moments struct {
	n        int
	mean, m2 float64
}

// sse is the SSE meanSSE computes from the same pass, rounding included.
func (m moments) sse() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1) * float64(m.n-1)
}

// add is one step of Welford's update: v joins the run.
func (m moments) add(v float64) moments {
	m.n++
	d := v - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (v - m.mean)
	return m
}

// splitGain computes the SSE reduction of splitting rows on X[f] <= t and
// returns the moments of each side. One pass classifies the rows into
// b.part without a branch, the left side from the front and the right side
// from the back; a second runs the two sides' Welford chains interleaved,
// each over its rows in their order in rows, so with the bits a lone pass
// over that side would give.
func (b *treeBuilder) splitGain(rows []int, f int, t, parentSSE float64) (gain float64, left, right moments) {
	if b.z == nil {
		b.grow()
	}
	col, part := b.X.col(f), b.part[:len(rows)]
	lo, hi := 0, len(rows)-1
	for _, r := range rows {
		in := 0
		if col[b.X.rowOf(r)] <= t {
			in = 1
		}
		// Both ends take r and only its side's advances: the other end is
		// written again by the next row of that side, or is this row's own
		// place when it is the last.
		part[lo], part[hi] = r, r
		lo += in
		hi -= 1 - in
	}
	l, r := part[:lo], part[lo:]
	i, j := 0, len(r)-1
	for ; i < len(l) && j >= 0; i, j = i+1, j-1 {
		left, right = left.add(b.y[l[i]]), right.add(b.y[r[j]])
	}
	for ; i < len(l); i++ {
		left = left.add(b.y[l[i]])
	}
	for ; j >= 0; j-- {
		right = right.add(b.y[r[j]])
	}
	if left.n < b.p.MinLeaf || right.n < b.p.MinLeaf {
		return 0, left, right
	}
	return parentSSE - left.m2 - right.m2, left, right
}

func meanSSE(y []float64, rows []int) (mean, sse float64) {
	var s stats.Summary
	for _, r := range rows {
		s.Add(y[r])
	}
	if s.N() < 2 {
		return s.Mean(), 0
	}
	return s.Mean(), s.Var() * float64(s.N()-1)
}

// Predict returns the tree's prediction for x.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}
