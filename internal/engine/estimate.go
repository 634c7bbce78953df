package engine

import (
	"context"
	"hash/fnv"

	"hyper/internal/lru"
	"hyper/internal/ml"
	"hyper/internal/obs"
	"hyper/internal/relation"
	"hyper/internal/shard"
	"hyper/internal/stats"
)

// estimatorSet trains and caches the conditional-expectation regressors
// E[label | B, C] used by the backdoor plug-in estimate (Eq. 35-40). One
// regressor is trained per distinct post-event (or per Y-weighted event);
// all share one columnar frame (ml.Frame) over the full relevant view:
// training selects the (sampled) rows by index, and tuple evaluation gathers
// prediction points from the same columns instead of re-encoding each tuple.
// The frame owns none of them. A view column's is the column's one encoding
// (relation.CodedColumn.Encoded), shared by every set over the view; a ψ
// summary's is the pre-update group means of the evaluation that built the
// set, which only this set reads.
type estimatorSet struct {
	featCols  []string
	keepFirst int                     // number of leading update-attribute features
	coded     []*relation.CodedColumn // per feature, its view column; nil for a ψ summary
	frame     *ml.Frame
	trainRows []int
	// keys indexes the feature combinations of trainRows (freq only): every
	// freq model of the set is fitted on it, and it answers hasSupport.
	keys *ml.FreqIndex
	kind string
	seed int64 // Options.Seed: forest seeds derive from it and the model key
	// fitPlan is the canonical shard plan over trainRows. Shard-mergeable
	// estimators (ml.ShardMergeable) fit per shard and fold in plan order;
	// the others fit whole-frame. The plan depends only on the training-set
	// size and Options.ShardRows, so fitted models are independent of the
	// worker fan-out.
	fitPlan shard.Plan
	models  *lru.Cache[ml.Regressor] // trained regressors by labeling key, unbounded
}

// newEstimatorSet assembles the frame over v. featCols is the concatenation
// of update attributes, the backdoor set, the summaries' names and the
// predicate attributes; sampling (HypeR-sampled) draws SampleSize rows
// without replacement, and an unsampled set trains on v's shared identity
// list. Of opts the set keeps the seed and the estimator kind it chose: it
// lives in the session's engine cache long after the request that built it,
// so it must not hold that request's Progress, Cache or Plans.
func newEstimatorSet(v *view, featCols []string, summaries []summaryFeature, keepFirst int, opts Options) *estimatorSet {
	s := &estimatorSet{
		featCols:  append([]string(nil), featCols...),
		keepFirst: keepFirst,
		coded:     make([]*relation.CodedColumn, len(featCols)),
		seed:      opts.Seed,
		models:    lru.New[ml.Regressor](0, nil),
	}
	cols := make([][]float64, len(featCols))
	continuous := len(summaries) > 0 // a group mean is a float
	for i, name := range featCols {
		if ci, ok := v.rel.Schema().Index(name); ok {
			s.coded[i] = v.rel.Coded(ci)
			cols[i] = s.coded[i].Encoded()
			continuous = continuous || v.rel.Schema().Col(ci).Kind == relation.KindFloat
		}
	}
	for _, sf := range summaries {
		cols[s.featureIndex(sf.name)] = sf.pre
	}
	s.frame = ml.FrameOfColumns(cols, s.coded, opts.Shards)
	n := v.rel.Len()
	if opts.SampleSize > 0 && opts.SampleSize < n {
		rng := stats.NewRNG(opts.Seed ^ 0x5ab0)
		s.trainRows = rng.SampleIndexes(n, opts.SampleSize)
	} else {
		s.trainRows = v.identityRows()
	}
	s.kind = chooseKind(opts.Estimator, continuous)
	s.fitPlan = shard.Rows(len(s.trainRows), opts.ShardRows)
	if s.kind == "freq" {
		s.keys = ml.NewFreqIndex(s.frame, s.trainRows, keepFirst)
	}
	return s
}

// hasSupport reports whether the exact feature combination x occurs in the
// training data (only meaningful for the frequency estimator).
func (s *estimatorSet) hasSupport(x []float64) bool {
	return s.keys.Has(x)
}

// chooseKind applies the auto rule: the exact frequency estimator when every
// feature is discrete (the support-index optimization of A.4), a random
// forest otherwise.
func chooseKind(want EstimatorKind, continuous bool) string {
	switch {
	case want == EstimatorFreq:
		return "freq"
	case want == EstimatorForest:
		return "forest"
	case !continuous:
		return "freq"
	case want == EstimatorLinear:
		return "linear"
	}
	return "forest"
}

// model returns (training on demand) the regressor for the labeled target.
// key must uniquely identify the labeling function. Safe for concurrent use;
// forest seeds derive from the key so results are independent of training
// order. Training is single-flight (lru.Cache.Do): when shard workers (or
// how-to candidate scorers) race on a cold key, one goroutine trains while
// the rest wait for its result — without this, a worker fan-out of N
// multiplies every cold training N-fold. A labeling error aborts the
// training without caching anything (a regressor fitted on partially failed
// labels must never be served); the next waiter retrains and deterministically
// hits the same error.
//
// ctx, workers (the shard fan-out of a sharded fit) and weighted (a span
// attribute) are the calling request's, passed per call and never stored: a
// cached set outlives the request that built it. Results cannot differ either
// way; the fit plan is fixed.
func (s *estimatorSet) model(ctx context.Context, key string, workers int, weighted bool, lab *labeler) (ml.Regressor, error) {
	m, _, err := s.models.Do(ctx, key, func() (ml.Regressor, error) {
		// Training is the expensive step of the estimator fitting loop; a
		// cancelled query stops here rather than fitting another regressor it
		// will never use. Already-trained models stay valid.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// One span per actual training (memo hits and single-flight waiters
		// never reach here), so a trace's fit-span count equals the trained
		// model count at any shard fan-out.
		_, fsp := obs.Start(ctx, "fit")
		defer fsp.End()
		fsp.Set("estimator", s.kind)
		fsp.Set("weighted", weighted)

		y := make([]float64, len(s.trainRows))
		for i, r := range s.trainRows {
			v, err := lab.label(r)
			if err != nil {
				return nil, err
			}
			y[i] = v
		}
		fsp.Set("label_evals", lab.evals)
		var m ml.Regressor
		switch s.kind {
		case "freq":
			m = s.keys.Fit(y, s.fitPlan, workers)
		case "linear":
			m = ml.FitLinearFrame(s.frame, s.trainRows, y, 1e-6)
		default:
			p := ml.DefaultForestParams()
			h := fnv.New64a()
			h.Write([]byte(key))
			p.Seed = s.seed ^ int64(h.Sum64())
			// Forest over linear residuals: the forest captures nonlinearity
			// in-distribution while the linear trend extrapolates at the edges
			// of the observed support, where hypothetical updates often land.
			m = ml.FitBoostedFrame(s.frame, s.trainRows, y, p)
		}
		// Charged only from the single-flight training path (like the fit span),
		// so the meter's fits_trained equals trainedModels() at any fan-out.
		obs.MeterFromContext(ctx).AddFitTrained()
		return m, nil
	})
	return m, err
}

// shardedFit reports whether this set's estimator kind fits per shard with
// exact merge (the capability flag surfaced in Result.ShardedFit).
func (s *estimatorSet) shardedFit() bool {
	return ml.ShardMergeable(s.kind) && s.fitPlan.Shards() > 1
}

// trainedModels returns the number of regressors fitted so far.
func (s *estimatorSet) trainedModels() int { return s.models.Len() }

// featureVectorInto gathers a view row's features from the shared frame
// into dst, which must have length len(featCols).
func (s *estimatorSet) featureVectorInto(row int, dst []float64) {
	s.frame.Gather(row, dst)
}

// featureIndex returns the position of a feature column, or -1.
func (s *estimatorSet) featureIndex(col string) int {
	for i, c := range s.featCols {
		if c == col {
			return i
		}
	}
	return -1
}

// encodeAt encodes a raw value for feature position i, a view column's.
func (s *estimatorSet) encodeAt(i int, v relation.Value) float64 {
	return s.coded[i].Encode(v)
}
