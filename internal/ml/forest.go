package ml

import (
	"context"

	"hyper/internal/shard"
	"hyper/internal/stats"
)

// ForestParams configures random-forest training.
type ForestParams struct {
	NumTrees int // number of trees (default 20)
	Tree     TreeParams
	Seed     int64
}

// DefaultForestParams mirrors the paper's random-forest regressor setup at a
// size tuned for interactive use.
func DefaultForestParams() ForestParams {
	return ForestParams{NumTrees: 20, Tree: DefaultTreeParams()}
}

// Forest is a fitted random-forest regressor: bagged CART trees with
// per-split feature subsampling, predictions averaged.
type Forest struct {
	trees []*Tree
}

// FitForestFrame trains a random forest over frame rows. sel maps training
// positions to frame rows (nil for identity); y is parallel to positions.
// When p.Tree.MaxFeatures is 0 and the frame has more than three features
// it defaults to ceil(dim/3), the standard regression-forest heuristic; with
// three or fewer it stays 0, and every split tries every feature. Trees are
// trained in parallel; determinism is preserved by deriving one RNG per tree
// from the seed. The trees share the frame's rank store (built by the first
// of them) and each keeps one set of scratch buffers for all of its nodes.
func FitForestFrame(fr *Frame, sel []int, y []float64, p ForestParams) *Forest {
	if p.NumTrees <= 0 {
		p.NumTrees = 20
	}
	dim := fr.Dim()
	if p.Tree.MaxFeatures <= 0 && dim > 3 {
		p.Tree.MaxFeatures = (dim + 2) / 3
	}
	f := &Forest{trees: make([]*Tree, p.NumTrees)}
	root := stats.NewRNG(p.Seed)
	rngs := make([]*stats.RNG, p.NumTrees)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	// One tree per shard, GOMAXPROCS wide. Never cancelled and no tree fit
	// fails, so Run has no error to return.
	_ = shard.Run(context.Background(), shard.Fixed(p.NumTrees, p.NumTrees), 0, func(_, i, _, _ int) error {
		rng := rngs[i]
		f.trees[i] = FitTreeFrame(fr, sel, y, rng.Bootstrap(len(y)), p.Tree, rng)
		return nil
	})
	return f
}

// Predict averages the tree predictions for x.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}
