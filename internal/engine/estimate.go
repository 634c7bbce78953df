package engine

import (
	"context"
	"fmt"
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
// all share one columnar encoded frame (ml.Frame), built once over the full
// relevant view: training selects the (sampled) rows by index, and tuple
// evaluation gathers prediction points from the same buffer instead of
// re-encoding each tuple.
type estimatorSet struct {
	view      *relation.Relation
	featCols  []string
	keepFirst int // number of leading update-attribute features
	enc       *ml.Encoder
	frame     *ml.Frame
	trainRows []int
	keys      *ml.SupportSet // exact feature combinations seen (freq only)
	kind      string
	opts      Options
	// fitPlan is the canonical shard plan over trainRows. Shard-mergeable
	// estimators (ml.ShardMergeable) fit per shard and merge in plan order;
	// the others fit whole-frame. The plan depends only on the training-set
	// size and Options.ShardRows, so fitted models are independent of the
	// worker fan-out.
	fitPlan shard.Plan
	models  *lru.Cache[ml.Regressor] // trained regressors by labeling key, unbounded
}

// newEstimatorSet prepares the shared columnar frame. featCols is the
// concatenation of update attributes, the backdoor set, and any summary
// columns; sampling (HypeR-sampled) draws SampleSize rows without
// replacement. query is the canonical query text, forwarded to a remote
// fitter (opts.RemoteFit) so the support index can be assembled from
// per-shard parts computed off-process; any remote failure falls back to
// the local sharded build, which is bit-identical.
func newEstimatorSet(ctx context.Context, view *relation.Relation, featCols []string, keepFirst int, query string, opts Options) *estimatorSet {
	s := &estimatorSet{
		view:      view,
		featCols:  append([]string(nil), featCols...),
		keepFirst: keepFirst,
		enc:       ml.NewEncoder(view, featCols),
		opts:      opts,
		models:    lru.New[ml.Regressor](0, nil),
	}
	s.frame = ml.NewFrameWorkers(s.enc, view, opts.Shards)
	n := view.Len()
	if opts.SampleSize > 0 && opts.SampleSize < n {
		rng := stats.NewRNG(opts.Seed ^ 0x5ab0)
		s.trainRows = rng.SampleIndexes(n, opts.SampleSize)
	} else {
		s.trainRows = make([]int, n)
		for i := range s.trainRows {
			s.trainRows[i] = i
		}
	}
	s.kind = s.chooseKind()
	s.fitPlan = shard.Rows(len(s.trainRows), opts.ShardRows)
	if s.kind == "freq" {
		if opts.RemoteFit != nil {
			if parts, err := opts.RemoteFit.SupportParts(ctx, query, opts, s.fitPlan.Shards()); err == nil && len(parts) == s.fitPlan.Shards() {
				if keys, err := ml.MergeSupportWires(s.frame, parts); err == nil {
					s.keys = keys
				}
			}
		}
		if s.keys == nil {
			s.keys = ml.NewSupportSetSharded(s.frame, s.trainRows, s.fitPlan, opts.Shards)
		}
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
func (s *estimatorSet) chooseKind() string {
	switch s.opts.Estimator {
	case EstimatorFreq:
		return "freq"
	case EstimatorForest:
		return "forest"
	}
	continuous := false
	for _, col := range s.featCols {
		k := s.view.Schema().Col(s.view.Schema().MustIndex(col)).Kind
		if k == relation.KindFloat {
			continuous = true
			break
		}
	}
	if !continuous {
		return "freq"
	}
	if s.opts.Estimator == EstimatorLinear {
		return "linear"
	}
	return "forest"
}

// fitExec is the per-call execution context of an estimator training: the
// evaluation's cancellation, worker fan-out, and the remote fitter that can
// compute the per-shard fit off-process. It is passed per call — never
// stored — because a cached estimator set outlives the request that built
// it, and execution knobs must follow the current request, not the one that
// warmed the cache (results cannot differ either way; the fit plan is fixed).
type fitExec struct {
	ctx      context.Context
	workers  int
	fitter   RemoteFitter // nil = fit locally
	query    string       // canonical query text for the remote fitter
	opts     Options      // evaluation options, forwarded to the fitter
	mask     uint64       // event-subset bitmask identifying the model
	weighted bool
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
// When ex carries a remote fitter and the estimator is shard-mergeable, the
// per-shard fit is dispatched off-process and the wire parts merge in fit-
// plan order; any remote failure falls back to the local fit, which is
// bit-identical by construction — distribution can move work, never results.
func (s *estimatorSet) model(key string, ex fitExec, label func(viewRow int) (float64, error)) (ml.Regressor, error) {
	m, _, err := s.models.Do(ex.ctx, key, func() (ml.Regressor, error) {
		// Training is the expensive step of the estimator fitting loop; a
		// cancelled query stops here rather than fitting another regressor it
		// will never use. Already-trained models stay valid.
		if err := ex.ctx.Err(); err != nil {
			return nil, err
		}
		// One span per actual training (memo hits and single-flight waiters
		// never reach here), so a trace's fit-span count equals the trained
		// model count at any shard fan-out.
		_, fsp := obs.Start(ex.ctx, "fit")
		defer fsp.End()
		fsp.Set("estimator", s.kind)
		fsp.Set("weighted", ex.weighted)

		var m ml.Regressor
		if s.kind == "freq" && ex.fitter != nil {
			if rm, err := s.remoteFit(ex); err == nil {
				m = rm
			}
			// Errors fall through to the local fit below: per-shard fits merged
			// in plan order are bit-identical to the local fit, so losing the
			// workers mid-training can never change a result — only where the
			// work ran.
			fsp.Set("remote", m != nil)
		}
		if m == nil {
			y := make([]float64, len(s.trainRows))
			for i, r := range s.trainRows {
				v, err := label(r)
				if err != nil {
					return nil, err
				}
				y[i] = v
			}
			switch s.kind {
			case "freq":
				m = ml.FitFreqFrameSharded(s.frame, s.trainRows, y, s.keepFirst, s.fitPlan, ex.workers)
			case "linear":
				m = ml.FitLinearFrame(s.frame, s.trainRows, y, 1e-6)
			default:
				p := ml.DefaultForestParams()
				h := fnv.New64a()
				h.Write([]byte(key))
				p.Seed = s.opts.Seed ^ int64(h.Sum64())
				// Forest over linear residuals: the forest captures nonlinearity
				// in-distribution while the linear trend extrapolates at the edges
				// of the observed support, where hypothetical updates often land.
				m = ml.FitBoostedFrame(s.frame, s.trainRows, y, p)
			}
		}
		// Charged only from the single-flight training path (like the fit span),
		// so the meter's fits_trained equals trainedModels() at any fan-out.
		obs.MeterFromContext(ex.ctx).AddFitTrained()
		return m, nil
	})
	return m, err
}

// remoteFit asks the remote fitter for one wire part per fit-plan shard and
// merges them in plan order. The merged estimator equals the local
// FitFreqFrameSharded result bit for bit (same cells, same fold order), so
// callers may use remote and local fits interchangeably.
func (s *estimatorSet) remoteFit(ex fitExec) (ml.Regressor, error) {
	parts, err := ex.fitter.FitFreqParts(ex.ctx, ex.query, ex.opts, ex.mask, ex.weighted, s.fitPlan.Shards())
	if err != nil {
		return nil, err
	}
	if len(parts) != s.fitPlan.Shards() {
		return nil, fmt.Errorf("engine: remote fit returned %d parts, fit plan has %d shards", len(parts), s.fitPlan.Shards())
	}
	return ml.MergeFreqWires(s.frame, s.keepFirst, parts)
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

// encodeAt encodes a raw value for feature position i.
func (s *estimatorSet) encodeAt(i int, v relation.Value) float64 {
	return s.enc.EncodeValue(i, v)
}
