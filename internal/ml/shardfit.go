package ml

import (
	"context"

	"hyper/internal/shard"
)

// Shard-parallel estimator fitting. The frequency estimator and the support
// set are the shard-mergeable estimators: their indexes are sums of
// per-row cells (counts and value sums keyed by interned code combinations),
// so fitting disjoint row ranges independently and folding the partial
// indexes together in shard order reconstructs the whole-range fit exactly —
// integer counts and set membership are associative, and float cell sums
// reduce along the plan's fixed tree, making the result a pure function of
// (frame, rows, y, plan), independent of the worker count executing it.
// Tree, forest and linear fits have no such decomposition (splits and normal
// equations are global), so they stay whole-frame; the engine consults
// ShardMergeable to decide.

// ShardMergeable reports whether the named estimator kind ("freq",
// "forest", "linear", ...) supports per-shard fitting with exact merge.
func ShardMergeable(kind string) bool { return kind == "freq" }

// FitFreqFrameSharded fits the frequency estimator over the frame rows
// selected by rows, partitioned by plan: shard s fits rows[lo:hi] (in
// parallel across at most workers goroutines), and the partial indexes merge
// in shard order. A plan with fewer than two shards degenerates to the plain
// FitFreqFrame.
func FitFreqFrameSharded(fr *Frame, rows []int, y []float64, keepFirst int, plan shard.Plan, workers int) *FreqEstimator {
	if plan.Shards() <= 1 {
		return FitFreqFrame(fr, rows, y, keepFirst)
	}
	fr.Intern() // once, before the fan-out: part fits share the codes
	parts := make([]*FreqEstimator, plan.Shards())
	// The background context is deliberate: fitting is not cancellable
	// mid-shard (a partially merged index would poison the shared cache),
	// and callers observe their contexts between estimator fits.
	_ = shard.Run(context.Background(), plan, workers, func(_, s, lo, hi int) error {
		parts[s] = fitFreq(fr, rows[lo:hi], y[lo:hi], keepFirst, s > 0)
		return nil
	})
	out := parts[0]
	for _, p := range parts[1:] {
		out.merge(fr, p)
	}
	return out
}

// NewSupportSetSharded builds the support index with per-shard construction
// and a set union. Membership is order-independent, so the result is
// identical to NewSupportSet for every plan; sharding is purely an execution
// choice and is skipped when it cannot run in parallel.
func NewSupportSetSharded(f *Frame, rows []int, plan shard.Plan, workers int) *SupportSet {
	if plan.Shards() <= 1 || plan.Workers(workers) <= 1 {
		return NewSupportSet(f, rows)
	}
	f.Intern()
	parts := make([]*SupportSet, plan.Shards())
	_ = shard.Run(context.Background(), plan, workers, func(_, s, lo, hi int) error {
		parts[s] = newSupportSet(f, rows[lo:hi], s > 0)
		return nil
	})
	out := parts[0]
	codes := make([]uint32, f.dim)
	for _, p := range parts[1:] {
		for _, r := range p.first {
			f.codeRow(int(r), codes)
			out.add(codes, int(r))
		}
	}
	return out
}

// merge folds other's cells into f. Both must be fitted over the frame fr;
// other's ids are re-keyed into f's through the rows that first produced
// them. A cell new to f starts at other's sum and a cell in both adds it
// once, so folding parts in shard order yields a deterministic index.
func (f *FreqEstimator) merge(fr *Frame, other *FreqEstimator) {
	f.global.sum += other.global.sum
	f.global.n += other.global.n
	codes := make([]uint32, fr.dim)
	f.exact.merge(fr, &other.exact, codes)
	for i := range f.backoff {
		f.backoff[i].merge(fr, &other.backoff[i], codes)
	}
	if f.keepFirst > 0 {
		f.firstOnly.merge(fr, &other.firstOnly, codes)
	}
}

func (l *freqLevel) merge(fr *Frame, other *freqLevel, codes []uint32) {
	for j, r := range other.first {
		fr.codeRow(int(r), codes)
		src := other.cells[j]
		if id, fresh := l.index.add(codes, int(r)); fresh {
			l.cells = append(l.cells, src)
		} else {
			l.cells[id].sum += src.sum
			l.cells[id].n += src.n
		}
	}
}
