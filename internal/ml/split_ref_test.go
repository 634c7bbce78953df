package ml

// The split search as it stood before the rank-store filter, kept as the
// oracle: copy and sort the node's values per (node, feature), then one
// splitGain pass per candidate threshold. It shares splitGain, meanSSE and
// the frame with the builder under test and nothing else.

import (
	"math"
	"sort"

	"hyper/internal/stats"
)

func (b *treeBuilder) refBestSplit(rows []int, parentSSE float64) (feat int, thr, gain float64) {
	feats := b.refCandidateFeatures()
	bestGain := 0.0
	bestFeat, bestThr := -1, 0.0
	vals := make([]float64, 0, len(rows))
	for _, f := range feats {
		col := b.X.col(f)
		vals = vals[:0]
		for _, r := range rows {
			vals = append(vals, col[b.X.rowOf(r)])
		}
		thresholds := candidateThresholds(vals, b.p.MaxThresholds)
		for _, t := range thresholds {
			g, _, _ := b.splitGain(rows, f, t, parentSSE)
			if g > bestGain {
				bestGain, bestFeat, bestThr = g, f, t
			}
		}
	}
	return bestFeat, bestThr, bestGain
}

func (b *treeBuilder) refCandidateFeatures() []int {
	if b.p.MaxFeatures <= 0 || b.p.MaxFeatures >= b.dim || b.rng == nil {
		all := make([]int, b.dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return b.rng.SampleIndexes(b.dim, b.p.MaxFeatures)
}

// candidateThresholds picks up to maxT midpoints between distinct sorted
// values (all midpoints when few distinct values, quantile-spaced otherwise).
func candidateThresholds(vals []float64, maxT int) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	distinct := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != distinct[len(distinct)-1] {
			distinct = append(distinct, v)
		}
	}
	if len(distinct) < 2 {
		return nil
	}
	mids := make([]float64, 0, len(distinct)-1)
	for i := 0; i+1 < len(distinct); i++ {
		mids = append(mids, (distinct[i]+distinct[i+1])/2)
	}
	if len(mids) <= maxT {
		return mids
	}
	out := make([]float64, 0, maxT)
	for i := 0; i < maxT; i++ {
		out = append(out, mids[i*len(mids)/maxT])
	}
	return out
}

func (b *treeBuilder) refBuild(rows []int, depth int) *treeNode {
	mean, sse := meanSSE(b.y, rows)
	if len(rows) < 2*b.p.MinLeaf || (b.p.MaxDepth > 0 && depth >= b.p.MaxDepth) || sse <= 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}
	feat, thr, gain := b.refBestSplit(rows, sse)
	if gain <= 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}
	var left, right []int
	for _, r := range rows {
		if b.X.at(r, feat) <= thr {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < b.p.MinLeaf || len(right) < b.p.MinLeaf {
		return &treeNode{leaf: true, value: mean}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      b.refBuild(left, depth+1),
		right:     b.refBuild(right, depth+1),
	}
}

// refFitForest is FitForestFrame over refBuild, serially: the same defaults,
// the same per-tree RNG derivation and bootstrap.
func refFitForest(fr *Frame, sel []int, y []float64, p ForestParams) []*treeNode {
	if p.NumTrees <= 0 {
		p.NumTrees = 20
	}
	if p.Tree.MaxFeatures <= 0 && fr.Dim() > 3 {
		p.Tree.MaxFeatures = (fr.Dim() + 2) / 3
	}
	root := stats.NewRNG(p.Seed)
	rngs := make([]*stats.RNG, p.NumTrees)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	trees := make([]*treeNode, p.NumTrees)
	for i, rng := range rngs {
		rows := rng.Bootstrap(len(y))
		trees[i] = newTreeBuilder(fr, sel, y, len(rows), p.Tree, rng).refBuild(rows, 0)
	}
	return trees
}

// sameTree reports whether two trees have the same shape, split features,
// and bit-identical thresholds and leaf values.
func sameTree(a, b *treeNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.leaf != b.leaf {
		return false
	}
	if a.leaf {
		return math.Float64bits(a.value) == math.Float64bits(b.value)
	}
	return a.feature == b.feature &&
		math.Float64bits(a.threshold) == math.Float64bits(b.threshold) &&
		sameTree(a.left, b.left) && sameTree(a.right, b.right)
}
