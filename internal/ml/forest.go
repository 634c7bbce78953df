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
// of them), and each fitting worker keeps one tree builder, whose bootstrap
// sample and search scratch serve every tree the worker grows.
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
	plan := shard.Fixed(p.NumTrees, p.NumTrees)
	workers := plan.Workers(0)
	builders := make([]*treeBuilder, workers)
	_ = shard.Run(context.Background(), plan, workers, func(w, i, _, _ int) error {
		b := builders[w]
		if b == nil {
			b = newTreeBuilder(fr, sel, y, len(y), p.Tree, nil)
			builders[w] = b
		}
		b.rows = rngs[i].BootstrapInto(b.rows, len(y))
		f.trees[i] = b.fit(b.rows, rngs[i])
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
