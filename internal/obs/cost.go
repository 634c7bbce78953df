package obs

import (
	"context"
	"sync"
	"time"

	"hyper/internal/fault"
)

// Meter accumulates the per-query cost vector: wall time per pipeline stage,
// tuples evaluated, shards run, estimator fits split by cache hit versus
// actual training, IP solver nodes, how-to candidate volume, bytes moved by
// the distribution layer, and retries. It follows the same contract as Span:
// it rides the context (ContextWithMeter / MeterFromContext), never cache
// identity, every method is nil-safe so instrumentation points cost one
// pointer check when metering is off, and a metered evaluation returns
// bit-identical results to an unmetered one (the benchmark's traced run
// reports its cost as obs.meter_overhead_pct, like tracing).
//
// The counters are declared once, as MeterJSON's fields: a charge site calls
// Charge with a MeterJSON delta, which folds in through MeterJSON.Add. Adding
// a counter is one field plus one line in Add.
//
// In dist mode each worker runs its request under a fresh Meter and returns
// it in the eval/fit response; the coordinator Folds the child meters into
// the query's vector, mirroring the span Graft. The fold keeps worker-
// reported totals in separate worker_* fields rather than summing them into
// the coordinator's own counters, which is what makes the reconciliation
// invariant checkable: when Retries == 0, the coordinator-side dispatch
// ledger (remote_shards, dist_bytes_shipped) must equal the summed worker-
// reported ledger (worker_shards_run, worker_bytes_received) exactly.
type Meter struct {
	mu        sync.Mutex
	session   string
	kind      string
	shape     string // normalized shape fingerprint (hyperql.Fingerprint)
	shapeText string // normalized shape text (hyperql.Shape), for display
	stages    map[string]time.Duration
	cost      MeterJSON // the counters; its StagesMs stays nil (see stages)
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

type meterKey struct{}

// ContextWithMeter returns a context carrying m as the current query meter.
func ContextWithMeter(ctx context.Context, m *Meter) context.Context {
	return context.WithValue(ctx, meterKey{}, m)
}

// MeterFromContext returns the current meter, or nil when ctx is unmetered.
func MeterFromContext(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
}

// SetShape stamps the query identity the serving layer aggregates under:
// session name, query kind ("whatif", "howto", ...), the normalized shape
// fingerprint (see hyperql.Fingerprint), and the normalized shape text
// (hyperql.Shape) surfaced as the usage table's display example.
func (m *Meter) SetShape(session, kind, shape, text string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.session, m.kind, m.shape, m.shapeText = session, kind, shape, text
	m.mu.Unlock()
}

// Shape returns the stamped query identity ("" fields when unstamped).
func (m *Meter) Shape() (session, kind, shape, text string) {
	if m == nil {
		return "", "", "", ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.session, m.kind, m.shape, m.shapeText
}

// addStage accumulates wall time under a stage label (a Stage's span name).
// Stages sum across calls, so a how-to's many candidate what-ifs charge one
// combined eval_shards figure.
func (m *Meter) addStage(name string, d time.Duration) {
	if m == nil || d <= 0 {
		return
	}
	m.mu.Lock()
	if m.stages == nil {
		m.stages = make(map[string]time.Duration, 8)
	}
	m.stages[name] += d
	m.mu.Unlock()
}

// Charge folds the delta d into the meter through MeterJSON.Add: PlanShards
// keeps the max (a how-to evaluates many candidate what-ifs over one plan),
// every other counter sums. d.StagesMs is ignored: stage time comes only
// from Stage.End and Fold.
func (m *Meter) Charge(d MeterJSON) {
	if m == nil {
		return
	}
	d.StagesMs = nil
	m.mu.Lock()
	m.cost.Add(&d)
	m.mu.Unlock()
}

// Fold merges a worker-reported meter into this query's vector, mirroring
// Span.Graft. The child's own-execution counters accumulate into worker_*
// fields (kept separate from the coordinator's ledger so the two sides stay
// comparable); child stage times fold in under a "worker_" prefix.
func (m *Meter) Fold(mj *MeterJSON) {
	if m == nil || mj == nil {
		return
	}
	m.Charge(MeterJSON{Workers: 1, WorkerShardsRun: mj.ShardsRun, WorkerTuples: mj.TuplesEvaluated,
		WorkerFitsTrained: mj.FitsTrained, WorkerFitsCached: mj.FitsCached, WorkerBytes: mj.DistBytesReceived})
	for name, ms := range mj.StagesMs {
		m.addStage("worker_"+name, time.Duration(ms*float64(time.Millisecond)))
	}
}

// Stage times one pipeline stage once for all three of its records: the span
// of the stage's name (when the context is traced), the meter entry under the
// same name (when it is metered) and the duration End returns for the
// caller's result field. The three read the same two instants, so they agree
// exactly. A Stage is a value and allocates nothing beyond its span.
type Stage struct {
	name  string
	start time.Time
	span  *Span
	meter *Meter
}

// StartStage opens the named stage under ctx's span and meter and returns a
// context carrying the stage's span (ctx itself when untraced). The stage's
// start is the fault injector's stage point (fault.Stage).
func StartStage(ctx context.Context, name string) (context.Context, Stage) {
	st := Stage{name: name, start: time.Now(), meter: MeterFromContext(ctx)}
	if parent := SpanFromContext(ctx); parent != nil {
		st.span = parent.childAt(name, st.start)
		ctx = ContextWithSpan(ctx, st.span)
	}
	fault.Stage(ctx, name) // an injected delay counts in this stage
	return ctx, st
}

// Set records an attribute on the stage's span.
func (s Stage) Set(key string, val any) { s.span.Set(key, val) }

// End reads the clock once, ends the span at that instant, charges the meter
// the same duration under the stage's name and returns it.
func (s Stage) End() time.Duration {
	d := time.Since(s.start)
	if s.span != nil {
		s.span.dur = d
	}
	s.meter.addStage(s.name, d)
	return d
}

// MeterJSON is the cost vector: the counters a Meter accumulates, what dist
// workers return in eval/fit responses, what the slow-query log and the
// usage table carry, and what /v1/usage serves. Zero fields are omitted so
// a local-only query renders compactly.
type MeterJSON struct {
	StagesMs          map[string]float64 `json:"stages_ms,omitempty"`
	TuplesEvaluated   uint64             `json:"tuples_evaluated,omitempty"`
	ShardsRun         uint64             `json:"shards_run,omitempty"`
	PlanShards        uint64             `json:"plan_shards,omitempty"` // canonical plan size, kept as a max
	FitsTrained       uint64             `json:"fits_trained,omitempty"`
	FitsCached        uint64             `json:"fits_cached,omitempty"`
	AppendShardsFit   uint64             `json:"append_shards_fitted,omitempty"` // strided shards holding appended rows
	AppendShardsReuse uint64             `json:"append_shards_reused,omitempty"` // shards sealed by earlier versions
	IPNodes           uint64             `json:"ip_nodes,omitempty"`
	HowToCandidates   uint64             `json:"howto_candidates,omitempty"`
	WhatIfEvals       uint64             `json:"whatif_evals,omitempty"`
	FrameBytesShipped uint64             `json:"frame_bytes_shipped,omitempty"` // frame snapshot bytes shipped to workers
	DistBytesShipped  uint64             `json:"dist_bytes_shipped,omitempty"`  // eval request bytes a worker accepted
	DistBytesReceived uint64             `json:"dist_bytes_received,omitempty"` // eval request bytes a worker received
	RemoteShards      uint64             `json:"remote_shards,omitempty"`       // shards answered remotely (coordinator ledger)
	Retries           uint64             `json:"retries,omitempty"`
	Workers           uint64             `json:"workers,omitempty"` // folded worker meters (see Fold)
	WorkerShardsRun   uint64             `json:"worker_shards_run,omitempty"`
	WorkerTuples      uint64             `json:"worker_tuples,omitempty"`
	WorkerFitsTrained uint64             `json:"worker_fits_trained,omitempty"`
	WorkerFitsCached  uint64             `json:"worker_fits_cached,omitempty"`
	WorkerBytes       uint64             `json:"worker_bytes_received,omitempty"`
}

// JSON snapshots the meter. Safe to call while charges continue, but the
// snapshot is only a consistent total once the query has finished.
func (m *Meter) JSON() *MeterJSON {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	mj := m.cost
	if len(m.stages) > 0 {
		mj.StagesMs = make(map[string]float64, len(m.stages))
		for k, d := range m.stages {
			mj.StagesMs[k] = float64(d) / float64(time.Millisecond)
		}
	}
	m.mu.Unlock()
	return &mj
}

// Add accumulates another cost vector into this one (a Meter's Charge and
// the usage-table aggregation). PlanShards keeps the max, everything else
// sums.
func (j *MeterJSON) Add(o *MeterJSON) {
	if j == nil || o == nil {
		return
	}
	if len(o.StagesMs) > 0 && j.StagesMs == nil {
		j.StagesMs = make(map[string]float64, len(o.StagesMs))
	}
	for k, ms := range o.StagesMs {
		j.StagesMs[k] += ms
	}
	j.TuplesEvaluated += o.TuplesEvaluated
	j.ShardsRun += o.ShardsRun
	if o.PlanShards > j.PlanShards {
		j.PlanShards = o.PlanShards
	}
	j.FitsTrained += o.FitsTrained
	j.FitsCached += o.FitsCached
	j.AppendShardsFit += o.AppendShardsFit
	j.AppendShardsReuse += o.AppendShardsReuse
	j.IPNodes += o.IPNodes
	j.HowToCandidates += o.HowToCandidates
	j.WhatIfEvals += o.WhatIfEvals
	j.FrameBytesShipped += o.FrameBytesShipped
	j.DistBytesShipped += o.DistBytesShipped
	j.DistBytesReceived += o.DistBytesReceived
	j.RemoteShards += o.RemoteShards
	j.Retries += o.Retries
	j.Workers += o.Workers
	j.WorkerShardsRun += o.WorkerShardsRun
	j.WorkerTuples += o.WorkerTuples
	j.WorkerFitsTrained += o.WorkerFitsTrained
	j.WorkerFitsCached += o.WorkerFitsCached
	j.WorkerBytes += o.WorkerBytes
}
