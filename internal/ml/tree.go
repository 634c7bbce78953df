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

// FitTreeFrame trains a regression tree over frame rows. sel maps training
// positions to frame rows (nil for identity); y is parallel to positions;
// rows selects positions (with repetition, enabling bootstrap) and may be
// nil for all. rows is not modified. rng drives feature subsampling and may
// be nil when MaxFeatures is 0.
func FitTreeFrame(fr *Frame, sel []int, y []float64, rows []int, p TreeParams, rng *stats.RNG) *Tree {
	own := slices.Clone(rows)
	if rows == nil {
		own = make([]int, len(y))
		for i := range own {
			own[i] = i
		}
	}
	return fitTreeOwned(fr, sel, y, own, p, rng)
}

// fitTreeOwned is FitTreeFrame over a row list the builder may reorder.
func fitTreeOwned(fr *Frame, sel []int, y []float64, rows []int, p TreeParams, rng *stats.RNG) *Tree {
	b := newTreeBuilder(fr, sel, y, len(rows), p, rng)
	mean, sse := meanSSE(y, rows)
	return &Tree{dim: fr.dim, root: b.build(rows, 0, mean, sse)}
}

// treeBuilder grows one tree. Everything below the frame and label fields
// is scratch sized once per tree and reused by every node and feature, so
// induction allocates tree nodes and nothing else.
type treeBuilder struct {
	X     frameView
	y     []float64
	p     TreeParams
	rng   *stats.RNG
	dim   int
	ranks *rankStore

	feats []int // the current node's candidate features
	spill []int // right-hand rows while a node's row list is partitioned

	// Per node: z[i] = y[rows[i]] - node mean.
	z []float64
	// Per (node, feature): the rank of each node row, a bitset marking the
	// ranks that occur (all zero between features), those ranks ascending,
	// and each one's bin.
	rk      []uint32
	seen    []uint64
	present []uint32
	binOf   []int32
	// Per (node, feature): the rows, sum of z and sum of z^2 of each bin
	// (bin j holds the values that first go left at threshold j; the last
	// bin never goes left).
	s1, s2 []float64
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
	ranks := fr.rankStore()
	k := p.MaxThresholds
	b := &treeBuilder{
		X: frameView{fr: fr, sel: sel}, y: y, p: p, rng: rng, dim: fr.dim, ranks: ranks,
		feats: make([]int, 0, fr.dim), spill: make([]int, 0, n),
		z: make([]float64, n), rk: make([]uint32, n),
		seen: make([]uint64, (ranks.maxCard+63)/64), present: make([]uint32, 0, min(n, ranks.maxCard)),
		binOf: make([]int32, ranks.maxCard),
		s1:    make([]float64, k+1), s2: make([]float64, k+1),
		splits: make([]featureSplits, fr.dim),
	}
	for i := range b.splits {
		b.splits[i] = featureSplits{thr: make([]float64, 0, k), left: make([]int, k+1), approx: make([]float64, k)}
	}
	return b
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
	// Stable partition in place: both sides keep the node's row order, which
	// the order-sensitive exact pass of the children depends on, and which
	// is the order splitGain accumulated l and r in. Both sides reach
	// MinLeaf: splitGain returns 0 otherwise.
	col, nl, spill := b.X.col(feat), 0, b.spill[:0]
	for _, row := range rows {
		if col[b.X.rowOf(row)] <= thr {
			rows[nl] = row
			nl++
		} else {
			spill = append(spill, row)
		}
	}
	copy(rows[nl:], spill)
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      b.build(rows[:nl], depth+1, l.mean, l.sse()),
		right:     b.build(rows[nl:], depth+1, r.mean, r.sse()),
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
func (b *treeBuilder) bestSplit(rows []int, mean, parentSSE float64) (feat int, thr, bestGain float64, l, r moments) {
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
//     by subtraction, so there is no cancellation term). sum z^2 errs by
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
// s.thr and assigns every value the node holds to its bin, leaving b.rk and
// b.binOf set for approxGains.
//
// The candidates are the midpoints (d[i]+d[i+1])/2 of the node's distinct
// values d in ascending order — all of them when there are at most
// MaxThresholds, else the MaxThresholds at indexes i*len(mids)/MaxThresholds
// — where every NaN row counts as a distinct value of its own, ahead of the
// real ones (NaN never equals its neighbour). A NaN midpoint (next to a NaN
// row, or between -Inf and +Inf) takes no row left and is never a candidate,
// but it holds its place in the index arithmetic. The rest are written
// ascending.
func (b *treeBuilder) binThresholds(rows []int, f int, s *featureSplits) {
	vals := b.ranks.vals[f]
	rank := b.ranks.rank[f*b.X.fr.rows : (f+1)*b.X.fr.rows]
	nanRank := uint32(len(vals)) // no such rank unless the column has NaN
	if n := len(vals); n > 0 && vals[n-1] != vals[n-1] {
		nanRank = uint32(n - 1)
	}

	// The ranks present in the node, ascending: each is marked in the
	// bitset, and the marks are read back a word at a time, clearing each
	// word for the next search. A node with too few rows to pay for a walk
	// over the column's words sorts its ranks instead and clears only the
	// words they marked.
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

	// d = nans NaN entries, then the real values present; mids[i] pairs
	// d[i] with d[i+1].
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

	// A value's bin is the first threshold it is <= to, compared against
	// the thresholds themselves: the midpoint of adjacent floats can round
	// onto its upper neighbour, so positions alone do not decide it. NaN is
	// <= nothing and lands in the last bin, which never goes left.
	j := 0
	for _, k := range present {
		for j < len(thr) && !(vals[k] <= thr[j]) {
			j++
		}
		b.binOf[k] = int32(j)
	}
}

// approxGains accumulates the node's rows into the bins binThresholds
// assigned and leaves, per threshold j, the exact row count left of it in
// s.left[j] (the rest of the n rows are right of it) and the approximate
// gain in s.approx[j]. It returns the largest approximate gain among
// thresholds both of whose sides reach MinLeaf (-Inf when there is none).
func (b *treeBuilder) approxGains(n int, parentSSE float64, s *featureSplits) float64 {
	k := len(s.thr)
	cnt, s1, s2, approx := s.left[:k+1], b.s1[:k+1], b.s2[:k+1], s.approx[:k]
	clear(cnt)
	clear(s1)
	clear(s2)
	for i, r := range b.rk[:n] {
		j, z := b.binOf[r], b.z[i]
		cnt[j]++
		s1[j] += z
		s2[j] += z * z
	}
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

// splitGain computes the SSE reduction of splitting rows on X[f] <= t using
// a single streaming pass, and returns that pass's moments of each side.
func (b *treeBuilder) splitGain(rows []int, f int, t, parentSSE float64) (gain float64, left, right moments) {
	col := b.X.col(f)
	var nL, nR int
	var meanL, meanR, m2L, m2R float64
	for _, r := range rows {
		v := b.y[r]
		if col[b.X.rowOf(r)] <= t {
			nL++
			d := v - meanL
			meanL += d / float64(nL)
			m2L += d * (v - meanL)
		} else {
			nR++
			d := v - meanR
			meanR += d / float64(nR)
			m2R += d * (v - meanR)
		}
	}
	left, right = moments{nL, meanL, m2L}, moments{nR, meanR, m2R}
	if nL < b.p.MinLeaf || nR < b.p.MinLeaf {
		return 0, left, right
	}
	return parentSSE - m2L - m2R, left, right
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
