package engine

import (
	"context"
	"hash/fnv"
	"slices"

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
	// prefix marks a set whose training rows are all the rows of a base
	// table's view and whose features are the table's columns (no ψ): a set
	// of a later version holds its rows, codes and cells as a prefix, so it
	// can derive its index and integer-label models from this one.
	prefix bool
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
// so it must not hold that request's Progress, Cache or Plans. A freq set
// extends the index of the set l names at the newest earlier version the
// cache holds, when both are prefix sets (recorded on stage), and builds it
// whole otherwise.
func newEstimatorSet(v *view, featCols []string, summaries []summaryFeature, keepFirst int, opts Options, l lineage, stage obs.Stage) *estimatorSet {
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
		if ci, ok := v.Rel.Schema().Index(name); ok {
			s.coded[i] = v.Rel.Coded(ci)
			cols[i] = s.coded[i].Encoded()
			continuous = continuous || v.Rel.Schema().Col(ci).Kind == relation.KindFloat
		}
	}
	// A ψ column interns through its GroupBy column, whose codes its group
	// means are a function of; s.coded stays nil there, for encodeAt.
	by := slices.Clone(s.coded)
	for _, sf := range summaries {
		i := s.featureIndex(sf.name)
		cols[i], by[i] = sf.pre, v.Rel.Coded(sf.group)
	}
	s.frame = ml.FrameOfColumns(cols, by, opts.Shards)
	n := v.Rel.Len()
	if opts.SampleSize > 0 && opts.SampleSize < n {
		rng := stats.NewRNG(opts.Seed ^ 0x5ab0)
		s.trainRows = rng.SampleIndexes(n, opts.SampleSize)
	} else {
		s.trainRows = v.identityRows()
		s.prefix = v.table() && len(summaries) == 0
	}
	s.kind = chooseKind(opts.Estimator, continuous)
	s.fitPlan = shard.Rows(len(s.trainRows), opts.ShardRows)
	if s.kind == "freq" {
		if s.prefix {
			fromAncestor(l, func(a *estimatorSet, anc relation.Ancestor) bool {
				if a.prefix && a.keys != nil {
					var ok bool
					if s.keys, ok = a.keys.Extend(s.frame, s.trainRows); ok {
						setDerived(stage, anc.Version, len(s.trainRows)-len(a.trainRows))
					}
				}
				return true
			})
		}
		if s.keys == nil {
			s.keys = ml.NewFreqIndex(s.frame, s.trainRows, keepFirst)
		}
	}
	return s
}

// setDerived records on a stage or span that its artifact derived from
// version from, which lacked rows of its rows.
func setDerived(sp interface{ Set(string, any) }, from int64, rows int) {
	sp.Set("derived_from", from)
	sp.Set("derived_rows", rows)
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
//
// A freq model of a prefix set derives from the same model of the newest
// ancestor set l names that holds it: only the rows past the ancestor's are
// labelled, and their labels added to its cells (ml.FreqEstimator.Extend,
// integer labels only). It still opens its fit span and charges its fit.
func (s *estimatorSet) model(ctx context.Context, key string, workers int, weighted bool, lab *labeler, l lineage) (ml.Regressor, error) {
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

		labels := func(rows []int) ([]float64, error) {
			y := make([]float64, len(rows))
			for i, r := range rows {
				v, err := lab.label(r)
				if err != nil {
					return nil, err
				}
				y[i] = v
			}
			fsp.Set("label_evals", lab.evals)
			return y, nil
		}
		m, err := s.deriveModel(key, l, labels, fsp)
		if err != nil || m != nil {
			if m != nil {
				obs.MeterFromContext(ctx).Charge(obs.MeterJSON{FitsTrained: 1})
			}
			return m, err
		}
		y, err := labels(s.trainRows)
		if err != nil {
			return nil, err
		}
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
			//
			// An unsampled set's training rows are every frame row in order
			// (a sample draws fewer), so the fit reads the frame directly.
			sel := s.trainRows
			if len(sel) == s.frame.Rows() {
				sel = nil
			}
			m = ml.FitBoostedFrame(s.frame, sel, y, p)
		}
		// Charged only from the single-flight training path (like the fit span),
		// so the meter's fits_trained equals trainedModels() at any fan-out.
		obs.MeterFromContext(ctx).Charge(obs.MeterJSON{FitsTrained: 1})
		return m, nil
	})
	return m, err
}

// deriveModel returns the freq model key names derived from the newest
// ancestor set that holds it, labelling only the rows past that set's, or nil
// when there is none to derive from or its labels are not all integers.
func (s *estimatorSet) deriveModel(key string, l lineage, labels func(rows []int) ([]float64, error), sp *obs.Span) (ml.Regressor, error) {
	if s.kind != "freq" || !s.prefix {
		return nil, nil
	}
	var m ml.Regressor
	var err error
	fromAncestor(l, func(a *estimatorSet, anc relation.Ancestor) bool {
		am, ok := a.models.Peek(key)
		if !ok || !a.prefix {
			return false // an older version may hold it
		}
		fm, ok := am.(*ml.FreqEstimator)
		if !ok || len(a.trainRows) > len(s.trainRows) {
			return true
		}
		var y []float64
		if y, err = labels(s.trainRows[len(a.trainRows):]); err != nil {
			return true
		}
		if d, ok := fm.Extend(s.keys, y); ok {
			m = d
			setDerived(sp, anc.Version, len(y))
		}
		return true
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
