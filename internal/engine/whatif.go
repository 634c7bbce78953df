package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/ml"
	"hyper/internal/obs"
	"hyper/internal/relation"
	"hyper/internal/shard"
	"hyper/internal/sqlmini"
)

// EvaluateContext computes the result of a what-if query q on db under the
// causal model (nil model falls back to the canonical no-background behaviour
// of ModeNB). It implements the computation of Section 3.3: relevant view →
// WHEN set → block decomposition → FOR normalization → backdoor adjustment →
// per-block aggregation. It prepares on every call, then runs the evaluation
// that Prepared.Evaluate and a dist worker run: each tuple class's
// contribution once, then one fold of the rows in plan order. ctx is
// observed between pipeline stages, before each estimator training, and in
// the class loop and the fold on a 512-row stride, so a cancelled
// or deadline-expired context stops the evaluation mid-solve (returning
// ctx.Err()) instead of running to completion. Artifacts already placed in
// the cache (views, blocks, fully trained estimators) remain valid — training
// is atomic per model, so a cancelled query never leaves a partially trained
// regressor behind.
func EvaluateContext(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options) (*Result, error) {
	// Tracing rides the context like the other execution-only knobs
	// (Progress, Shards): an untraced context makes every obs.Start a nil
	// check, and a traced one never reaches cache identity or results.
	pctx, psp := obs.Start(ctx, "prepare")
	p, err := prepareEvaluation(pctx, db, model, q, opts)
	psp.End()
	if err != nil {
		return nil, err
	}
	return p.evaluate(ctx)
}

// cachedView materializes (or fetches from the cache) the relevant view of
// use, returning it with its cache key. The view is a function of USE alone,
// so the candidates of a how-to and a session's query templates share it
// whatever they update.
func cachedView(db *relation.Database, use *hyperql.UseClause, c *Cache) (v *view, viewKey string, hit bool, err error) {
	// MVCC: a versioned database folds its snapshot version into the view
	// key, which transitively versions every artifact keyed off it — the
	// view itself and estimator sets — so a query pinned to snapshot v keeps
	// hitting v's artifacts after appends while the new head never reads
	// stale ones. Version 0 (bare-library databases) keeps historical keys.
	useKey := use.String()
	viewKey = versioned(db.VersionTag(), useKey)
	// buildView takes no context — neither its builder nor a waiter gives up
	// mid-view; both observe cancellation right after this stage.
	v, hit, err = memo(context.Background(), c, kindView+viewKey, func() (*view, error) {
		v, err := buildView(db, use)
		if err == nil {
			fromAncestor(lineage{c, db, func(tag string) string { return kindView + versioned(tag, useKey) }},
				func(a *view, _ relation.Ancestor) bool {
					v.deriveIdentity(a)
					return true
				})
		}
		return v, err
	})
	return v, viewKey, hit, err
}

// prepareEvaluation prepares q and binds its own updates, as EvaluateContext
// does before the tuple values.
func prepareEvaluation(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options) (*evaluator, error) {
	start := time.Now()
	p, err := prepare(ctx, db, model, q, opts)
	if err != nil {
		return nil, err
	}
	return p.bind(ctx, q.Updates, start, opts)
}

// evaluate is the one evaluation after bind, for a local what-if and a how-to
// candidate (a dist worker's, partials, returns its windows instead): values,
// then the fold stage over the shards in plan order. The regime is found once
// per Prepared: where every view row is a block of its own, in ascending
// block order, each row adds its class value straight into the totals, with
// the bits of the other regime (see foldWindows); otherwise each shard's rows
// add into its block window and the windows fold as MergePartials folds them.
func (e *evaluator) evaluate(ctx context.Context) (*Result, error) {
	if e.o.DryRun {
		return e.res, nil
	}
	k := e.plan.Shards()
	ids := make([]int, k)
	for s := range ids {
		ids[s] = s
	}
	vctx, stage := obs.StartStage(ctx, "eval_shards")
	vals, err := e.values(vctx, stage, ids)
	e.res.EvalTime = stage.End()
	if err != nil {
		return nil, err
	}
	_, fold := obs.StartStage(ctx, "fold")
	var parts []ShardPartial
	if !e.rowsOwnBlocks() {
		parts = make([]ShardPartial, k)
	}
	for s := range k {
		if parts == nil {
			err = e.addRows(ctx, s, vals)
		} else {
			parts[s], err = e.window(ctx, s, vals)
		}
		if err != nil {
			fold.End()
			return nil, err
		}
		e.report("shards", s+1, k)
	}
	foldWindows(e.res, parts, e.nBlocks)
	e.res.setValue(e.agg)
	fold.Set("blocks", e.nBlocks)
	e.res.EvalTime += fold.End()
	e.res.TrainedModels = e.est.trainedModels()
	e.res.Total = time.Since(e.start)
	e.report("tuples", e.v.Rel.Len(), e.v.Rel.Len())
	return e.res, nil
}

// partials values the listed shards of the canonical plan and returns their
// partials, in the order listed: the rows (rowValues) where every view row is
// a block of its own, block windows otherwise. ids must be distinct and
// within the plan. A shard's partial is a pure function of the prepared
// evaluation and its row range, whichever process computes it, which is what
// makes partials portable. The whole of it is the eval_shards stage.
func (e *evaluator) partials(ctx context.Context, ids []int) ([]ShardPartial, error) {
	k := e.plan.Shards()
	seen := make([]bool, k)
	for _, s := range ids {
		if s < 0 || s >= k {
			return nil, fmt.Errorf("engine: shard %d out of plan range [0,%d)", s, k)
		}
		if seen[s] {
			return nil, fmt.Errorf("engine: shard %d requested twice", s)
		}
		seen[s] = true
	}
	ctx, stage := obs.StartStage(ctx, "eval_shards")
	defer stage.End()
	vals, err := e.values(ctx, stage, ids)
	if err != nil {
		return nil, err
	}
	parts, own := make([]ShardPartial, len(ids)), e.rowsOwnBlocks()
	for j, s := range ids {
		if own {
			parts[j], err = e.rowValues(ctx, s, vals)
		} else {
			parts[j], err = e.window(ctx, s, vals)
		}
		if err != nil {
			return nil, err
		}
		e.report("shards", j+1, len(ids))
	}
	if e.classOf != nil {
		stage.Set("layouts_built", e.layoutsBuilt)
	}
	return parts, nil
}

// Cancellation and progress work on a stride so neither the ctx check nor
// the progress report touches the per-row fast path.
const stride = 512

func (e *evaluator) report(stage string, done, total int) {
	if e.o.Progress != nil {
		e.o.Progress(stage, done, total)
	}
}

// values is the producer: tuple() once for each class a row of the listed
// shards belongs to, on the class's first row (without a class key every row
// is its own class), in parallel over class ranges, indexed by class. It
// labels eval_shards, charges the meter the fan-out-independent totals, and
// binds the class partition (the whole view's: lazy fits label every
// training row) to the evaluator. Its stride is the classes of 512 rows: it
// checks ctx and reports "tuples" as the share of classes valued times the
// rows. A tuple() error is the first failing class's: with every shard
// listed, the row EvaluateContext fails at with Shards=1.
func (e *evaluator) values(ctx context.Context, stage obs.Stage, ids []int) ([]classVal, error) {
	// Lazy fits run in tuple() under the evaluator's stored context: this
	// one nests their fit spans under eval_shards (same Done chain).
	e.ctx = ctx
	for _, s := range ids {
		lo, hi := e.plan.Bounds(s)
		e.rows += hi - lo
	}
	k := e.plan.Shards()
	workers := max(min(e.plan.Workers(e.o.Shards), len(ids)), 1)
	stage.Set("plan", k)
	stage.Set("shards", len(ids))
	stage.Set("rows", e.rows)
	stage.Set("workers", workers)
	obs.MeterFromContext(ctx).Charge(obs.MeterJSON{
		PlanShards: uint64(k), ShardsRun: uint64(len(ids)), TuplesEvaluated: uint64(e.rows)})
	classOf, first, built := e.partition()
	if built {
		stage.Set("partitioned", true)
	}
	e.classOf, e.classes = classOf, len(first)
	stage.Set("classes", e.classes)
	// A shard subset values only the classes its rows belong to, ascending,
	// as its shards' layouts list them; without a class key, its rows,
	// packed in plan order (e.off).
	classes := e.v.Rel.Len()
	if first != nil {
		classes = len(first)
	}
	units, todo := classes, []int32(nil)
	if len(ids) < k && first == nil {
		e.off = make([]int, k)
		for _, s := range slices.Sorted(slices.Values(ids)) {
			lo, hi := e.plan.Bounds(s)
			for i := lo; i < hi; i++ {
				todo = append(todo, int32(i))
			}
			e.off[s] = hi - len(todo)
		}
		classes, units = len(todo), len(todo)
	} else if len(ids) < k {
		need := make([]bool, classes)
		for _, s := range ids {
			for _, c := range e.layout(s).refs {
				need[c] = true
			}
		}
		for c, ok := range need {
			if ok {
				todo = append(todo, int32(c))
			}
		}
		units = len(todo)
	}
	vals := make([]classVal, classes)
	locals := make([]*evaluator, workers)
	var valued atomic.Int64                      // classes valued, by the stride
	every := max(1, stride*units/max(e.rows, 1)) // the stride: the classes of 512 rows
	err := shard.Run(ctx, shard.Fixed(units, workers), workers, func(w, _, lo, hi int) error {
		local := locals[w]
		if local == nil {
			local = e.fork()
			locals[w] = local
		}
		for u := lo; u < hi; u++ {
			if u%every == 0 && u > 0 { // at any fan-out, the same reports
				if err := ctx.Err(); err != nil {
					return err
				}
				e.report("tuples", int(valued.Add(int64(every))*int64(e.rows)/int64(units)), e.rows)
			}
			c, row := u, u
			if todo != nil {
				row = int(todo[u])
			}
			if first != nil {
				c, row = row, int(first[row])
			}
			s, cnt, err := local.tuple(row)
			if err != nil {
				return err
			}
			vals[c] = classVal{sum: s, cnt: cnt}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stage.Set("evaluated", units)
	return vals, nil
}

// addRows adds plan shard s's rows' class values straight into the totals,
// in row order: the fold of rows that are their own blocks.
func (e *evaluator) addRows(ctx context.Context, s int, vals []classVal) error {
	lo, hi := e.plan.Bounds(s)
	sum, cnt := e.res.Sum, e.res.Count
	for i := lo; i < hi; i++ {
		if (i-lo)%stride == 0 && i > lo {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := vals[e.classAt(i)]
		sum += v.sum
		cnt += v.cnt
	}
	e.res.Sum, e.res.Count = sum, cnt
	return nil
}

// rowValues is plan shard s's partial where every view row is a block of its
// own: its rows' values in row order, which a merge adds straight into the
// totals as addRows does. Under a class key they go as the shard's layout
// codes them: the (sum, count) of each class the rows reference, once, in the
// order of first reference, and the layout's row codes, shared by every call.
// Where codes would take no fewer bytes than 16 a row, the values go per
// row: without a class key, or with nearly as many classes as rows.
func (e *evaluator) rowValues(ctx context.Context, s int, vals []classVal) (ShardPartial, error) {
	lo, hi := e.plan.Bounds(s)
	w, n := ShardPartial{Shard: s}, hi-lo
	if e.classOf != nil {
		if l := e.layout(s); l.width > 0 {
			w.Width, w.Codes = l.width, l.codes
			w.Sum, w.Cnt = make([]float64, len(l.refs)), make([]float64, len(l.refs))
			for k, c := range l.refs {
				w.Sum[k], w.Cnt[k] = vals[c].sum, vals[c].cnt
			}
			return w, nil
		}
	}
	off := 0
	if e.off != nil {
		off = e.off[s]
	}
	w.Sum, w.Cnt = make([]float64, n), make([]float64, n)
	for i := lo; i < hi; i++ {
		if (i-lo)%stride == 0 && i > lo {
			if err := ctx.Err(); err != nil {
				return w, err
			}
		}
		v := vals[e.classAt(i)-off]
		w.Sum[i-lo], w.Cnt[i-lo] = v.sum, v.cnt
	}
	return w, nil
}

// window is plan shard s's block window: the (sum, count) of each block its
// rows touch, over the window of block ids they span (for the common
// one-block-per-tuple decomposition a contiguous row shard touches a narrow,
// near-contiguous id range), each row adding its class value in row order.
func (e *evaluator) window(ctx context.Context, s int, vals []classVal) (ShardPartial, error) {
	lo, hi := e.plan.Bounds(s)
	minB, maxB, off := e.nBlocks, -1, 0
	for i := lo; i < hi; i++ {
		b := e.blockAt(i)
		minB, maxB = min(minB, b), max(maxB, b)
	}
	if e.off != nil {
		off = e.off[s]
	}
	w := ShardPartial{Shard: s, MinBlock: minB, Sum: make([]float64, maxB-minB+1), Cnt: make([]float64, maxB-minB+1)}
	for i := lo; i < hi; i++ {
		if (i-lo)%stride == 0 && i > lo {
			if err := ctx.Err(); err != nil {
				return w, err
			}
		}
		v := vals[e.classAt(i)-off]
		b := e.blockAt(i) - minB
		w.Sum[b] += v.sum
		w.Cnt[b] += v.cnt
	}
	return w, nil
}

// foldWindows adds block windows, in plan order, into res's totals, as a
// local evaluation and MergePartials both do: each block's total adds its
// windows' entries in plan order, and the block totals add into res in block
// order. A block goes into res once no later window reaches it, so windows
// that ascend without overlapping add straight through and the per-block
// totals are allocated only when a block must wait. Adding a lone entry e for
// its block's total 0 + e, as evaluate's own-block regime adds rows, keeps
// the bits: they differ only for -0, and res's totals start at +0 and never
// become -0, so adding either leaves them the same.
func foldWindows(res *Result, parts []ShardPartial, nBlocks int) {
	next := make([]int, len(parts)) // the first block a later window reaches
	reach, done := nBlocks, 0       // held blocks below done are in res
	for s := len(parts) - 1; s >= 0; s-- {
		next[s] = reach
		if len(parts[s].Sum) > 0 {
			reach = min(reach, parts[s].MinBlock)
		}
	}
	var sum, cnt []float64 // the held block totals
	for s, w := range parts {
		if sum == nil && (len(w.Sum) == 0 || w.MinBlock+len(w.Sum) <= next[s]) {
			for j, v := range w.Sum {
				res.Sum += v
				res.Count += w.Cnt[j]
			}
			continue
		}
		if sum == nil {
			sum, cnt = make([]float64, nBlocks), make([]float64, nBlocks)
		}
		for j, v := range w.Sum {
			sum[w.MinBlock+j] += v
			cnt[w.MinBlock+j] += w.Cnt[j]
		}
		for ; done < next[s]; done++ {
			res.Sum += sum[done]
			res.Count += cnt[done]
		}
	}
}

// setValue computes the aggregate from the totals.
func (r *Result) setValue(agg hyperql.AggFunc) {
	switch agg {
	case hyperql.AggCount:
		r.Value = r.Count
	case hyperql.AggSum:
		r.Value = r.Sum
	case hyperql.AggAvg:
		if r.Count > 0 {
			r.Value = r.Sum / r.Count
		}
	}
}

// evaluator is a Prepared bound to one update, for one call: the call's
// options, the update, its ψ features and estimator set, the Result it
// fills, and per-worker scratch. Preparation is deterministic in the query,
// data and semantic options, so two processes agree on the shard plan, the
// blocks and every trained estimator, which the distributed path relies on.
// The producer's workers each value classes on a fork of it.
type evaluator struct {
	*Prepared
	o         Options // the Prepared's, with this call's Shards, Progress and DryRun (bind)
	res       *Result
	start     time.Time
	ctx       context.Context
	est       *estimatorSet
	lineage   lineage // est's at other versions
	updates   []hyperql.UpdateSpec
	summaries []summaryFeature // the Prepared's ψ with this update's post means
	rows      int              // the rows of the shards valued (values)
	off       []int            // without a class key on a shard subset: see values

	activeBuf []int
	xBuf      []float64                // prediction-point scratch, reused across tuples
	evBuf     []int                    // per-tuple active event ids (scratch)
	modelMemo map[memoKey]ml.Regressor // per-worker event-subset -> model

	// Tuple classes (classes.go), set by values for one evaluation:
	// classOf[i] is the class of view row i, nil when every row is its own
	// class. layoutsBuilt counts the shard layouts this call built.
	classOf      *relation.Codes
	classes      int
	layoutsBuilt int
}

// layout is plan shard s's class layout, built by the first call for s on
// the Prepared and shared by the rest. The partition must be bound (values).
func (e *evaluator) layout(s int) *shardLayout {
	l := &e.layouts[s]
	l.once.Do(func() {
		lo, hi := e.plan.Bounds(s)
		l.build(e.classOf, e.classes, lo, hi, e.rowsOwnBlocks())
		e.layoutsBuilt++
	})
	return l
}

// classAt is view row i's class: its row index without a class key.
func (e *evaluator) classAt(i int) int {
	if e.classOf == nil {
		return i
	}
	return int(e.classOf.At(i))
}

// fork copies the evaluator for one worker, with scratch of its own.
func (e *evaluator) fork() *evaluator {
	cp := *e
	cp.activeBuf, cp.xBuf, cp.evBuf, cp.modelMemo = nil, nil, nil, nil
	return &cp
}

// memoKey identifies a model by its post-event subset (a bitmask over
// evaluator.events) and Y-weighting.
type memoKey struct {
	mask     uint64
	weighted bool
}

// postUpdate is a view row's value of an update attribute after the update:
// the rows WHEN selected take u's function of their pre-update value, the
// rest keep it.
func postUpdate(u hyperql.UpdateSpec, inS bool, pre relation.Value) relation.Value {
	if inS {
		return u.Apply(pre)
	}
	return pre
}

// isAffected reports whether the update reaches view row i: its own update
// attribute changes or a summary feature (group mean) shifts. Unaffected
// tuples are evaluated exactly.
func (e *evaluator) isAffected(i int) bool {
	if e.inS[i] {
		for ai, ci := range e.updIdx {
			if pre := e.v.Rel.Value(i, ci); !e.updates[ai].Apply(pre).Equal(pre) {
				return true
			}
		}
	}
	for _, s := range e.summaries {
		if math.Abs(s.post[i]-s.pre[i]) > 1e-12 {
			return true
		}
	}
	return false
}

// tuple returns the (expected-sum, expected-count) contribution of view row
// i: count is Pr(FOR-post ∧ OUTPUT-cond | do(U), pre-state), sum is
// E[Y · 1{...}] under the same distribution (Propositions 4 and 5).
func (e *evaluator) tuple(i int) (sum, count float64, err error) {
	env := sqlmini.RowEnv{Rel: e.v.Rel, Row: i}
	// Active disjuncts: pre conditions are deterministic on D.
	e.activeBuf = e.activeBuf[:0]
	for k, d := range e.disjuncts {
		ok := true
		for _, lit := range d.pre {
			pass, err := sqlmini.EvalBool(lit, env)
			if err != nil {
				return 0, 0, fmt.Errorf("engine: FOR: %w", err)
			}
			if !pass {
				ok = false
				break
			}
		}
		if ok {
			e.activeBuf = append(e.activeBuf, k)
		}
	}
	if len(e.activeBuf) == 0 {
		return 0, 0, nil
	}

	if !e.isAffected(i) {
		// Exact evaluation: the post-update state equals the pre-update
		// state for this tuple, so the indicator is observed.
		p, err := e.observedEvent(i, e.activeBuf)
		if err != nil {
			return 0, 0, err
		}
		if p == 0 {
			return 0, 0, nil
		}
		y := 1.0
		if e.yIdx >= 0 {
			y = e.v.Rel.Value(i, e.yIdx).AsFloat()
		}
		return y, 1, nil
	}

	// Affected tuple: estimate by backdoor adjustment. Build the prediction
	// features in the worker-local scratch buffer (gathered from the shared
	// columnar frame, so nothing is re-encoded or allocated per tuple):
	// observed backdoor values, post-update B, post-update ψ.
	if e.xBuf == nil {
		e.xBuf = make([]float64, len(e.est.featCols))
	}
	x := e.xBuf
	e.est.featureVectorInto(i, x)
	for ai, ci := range e.updIdx {
		x[e.featUpd[ai]] = e.est.encodeAt(e.featUpd[ai], postUpdate(e.updates[ai], e.inS[i], e.v.Rel.Value(i, ci)))
	}
	for si, s := range e.summaries {
		x[e.featSum[si]] = s.post[i]
	}

	count, err = e.inclusionExclusion(i, e.activeBuf, x, false)
	if err != nil {
		return 0, 0, err
	}
	count = clamp01(count)
	if e.yIdx >= 0 {
		sum, err = e.inclusionExclusion(i, e.activeBuf, x, true)
		if err != nil {
			return 0, 0, err
		}
	} else {
		sum = count
	}
	return sum, count, nil
}

// observedEvent evaluates (∨_active post-conj) ∧ outCond on the observed
// tuple, returning 0 or 1.
func (e *evaluator) observedEvent(i int, active []int) (float64, error) {
	env := sqlmini.RowEnv{Rel: e.v.Rel, Row: i}
	if e.outCond != nil {
		ok, err := sqlmini.EvalBool(e.outCond, env)
		if err != nil {
			return 0, fmt.Errorf("engine: OUTPUT condition: %w", err)
		}
		if !ok {
			return 0, nil
		}
	}
	for _, k := range active {
		all := true
		for _, lit := range e.disjuncts[k].post {
			ok, err := sqlmini.EvalBool(lit, env)
			if err != nil {
				return 0, fmt.Errorf("engine: FOR: %w", err)
			}
			if !ok {
				all = false
				break
			}
		}
		if all {
			return 1, nil
		}
	}
	return 0, nil
}

// inclusionExclusion estimates Pr(∨_k E_k ∧ G) (weighted=false) or
// E[Y · 1{∨_k E_k ∧ G}] (weighted=true) for the active disjuncts' post
// events E_k and the output condition G, by inclusion-exclusion over event
// subsets with one cached regressor per subset (A.2.1). Duplicate events are
// deduplicated first (by the ids assigned in prepare — no per-tuple string
// work); an empty event list degenerates to Pr(G) or E[Y·1{G}].
func (e *evaluator) inclusionExclusion(i int, active []int, x []float64, weighted bool) (float64, error) {
	// Collect distinct post events among active disjuncts, in first-seen
	// order. An empty post list is the sure event: the disjunction is then
	// TRUE.
	e.evBuf = e.evBuf[:0]
	sure := false
	for _, k := range active {
		id := e.eventID[k]
		if id < 0 {
			sure = true
			continue
		}
		dup := false
		for _, seen := range e.evBuf {
			if seen == id {
				dup = true
				break
			}
		}
		if !dup {
			e.evBuf = append(e.evBuf, id)
		}
	}
	if sure {
		// Pr(TRUE ∧ G) = Pr(G).
		return e.predictEventMask(0, x, weighted)
	}
	if len(e.evBuf) > 12 {
		return 0, fmt.Errorf("engine: FOR predicate has %d distinct post events per tuple; limit is 12", len(e.evBuf))
	}
	total := 0.0
	n := len(e.evBuf)
	for mask := 1; mask < 1<<n; mask++ {
		var gm uint64
		bits := 0
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				gm |= 1 << uint(e.evBuf[b])
				bits++
			}
		}
		p, err := e.predictEventMask(gm, x, weighted)
		if err != nil {
			return 0, err
		}
		if bits%2 == 1 {
			total += p
		} else {
			total -= p
		}
	}
	return total, nil
}

// predictEventMask predicts at features x with the regressor for the event
// subset gm (a bitmask over e.events, conjoined with outCond) — Y-weighted
// when weighted. The per-worker memo makes the steady-state path
// lock-free and string-free; only the first encounter of a subset builds
// its key and consults (or trains through) the shared estimator cache.
func (e *evaluator) predictEventMask(gm uint64, x []float64, weighted bool) (float64, error) {
	mk := memoKey{mask: gm, weighted: weighted}
	if m, ok := e.modelMemo[mk]; ok {
		return m.Predict(x), nil
	}
	m, err := e.eventModel(gm, weighted)
	if err != nil {
		return 0, err
	}
	if e.modelMemo == nil {
		e.modelMemo = make(map[memoKey]ml.Regressor)
	}
	e.modelMemo[mk] = m
	return m.Predict(x), nil
}

// eventLits collects the conjunction identifying the model of event subset
// gm: the subset's post literals in event-id order, then outCond.
func (e *evaluator) eventLits(gm uint64) []hyperql.Expr {
	var lits []hyperql.Expr
	for id, ev := range e.events {
		if gm&(1<<uint(id)) != 0 {
			lits = append(lits, ev...)
		}
	}
	if e.outCond != nil {
		lits = append(lits, e.outCond)
	}
	return lits
}

// eventModel returns (training on demand) the regressor for the event
// subset mask conjoined with outCond, Y-weighted when weighted. The cache
// key, the forest seed derived from it, and the label function all come from
// the one eventLits conjunction, so they cannot drift apart.
func (e *evaluator) eventModel(mask uint64, weighted bool) (ml.Regressor, error) {
	all := e.eventLits(mask)
	key := eventKey(all)
	if weighted {
		key = "Y*" + key
	}
	return e.est.model(e.ctx, key, e.o.Shards, weighted, e.labelFor(all, weighted), e.lineage)
}

// labelFor builds the training-label function of the event conjunction
// (all ∧), Y-weighted when weighted. Like tuple() it reads only the row's
// class columns, so it labels by class when the rows are partitioned.
func (e *evaluator) labelFor(all []hyperql.Expr, weighted bool) *labeler {
	return &labeler{classOf: e.classOf, classes: e.classes, eval: func(r int) (float64, error) {
		env := sqlmini.RowEnv{Rel: e.v.Rel, Row: r}
		for _, lit := range all {
			ok, err := sqlmini.EvalBool(lit, env)
			if err != nil {
				return 0, fmt.Errorf("engine: labeling post event: %w", err)
			}
			if !ok {
				return 0, nil
			}
		}
		if weighted {
			return e.v.Rel.Value(r, e.yIdx).AsFloat(), nil
		}
		return 1, nil
	}}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// backdoorColumns derives the conditioning set as view column names. R's key
// columns are the plain view columns read from R's FROM entry from.
func backdoorColumns(v *view, from int, model *causal.Model, updateAttrs []string, yCol string, outCond hyperql.Expr, disjuncts []disjunct, mode Mode) []string {
	if mode == ModeIndep {
		return nil
	}
	// Outcome attributes: Y, the OUTPUT condition's columns, and every
	// column referenced by a post literal.
	outcomeCols := map[string]bool{}
	if yCol != "" {
		outcomeCols[yCol] = true
	}
	for _, c := range hyperql.ColRefs(outCond) {
		outcomeCols[c.Name] = true
	}
	for _, d := range disjuncts {
		for _, lit := range d.post {
			for _, c := range hyperql.ColRefs(lit) {
				outcomeCols[c.Name] = true
			}
		}
	}
	// excluded: updates, outcomes and R's key (Section 2.2).
	cols := v.Rel.Schema().Columns()
	excluded := func(c int) bool {
		s := v.Cols[c]
		isKey := s.Table == from && !s.Agg && v.Tables[from].Schema().Col(s.Col).Key
		return isKey || slices.Contains(updateAttrs, cols[c].Name) || outcomeCols[cols[c].Name]
	}

	if mode == ModeNB || model == nil {
		// All attributes except the excluded ones.
		var out []string
		for c, col := range cols {
			if !excluded(c) {
				out = append(out, col.Name)
			}
		}
		return out
	}

	// ModeFull: minimal backdoor set on the attribute-level causal graph,
	// restricted to attributes representable in the view.
	var candidates, qualOutcomes []string
	for c, col := range cols {
		q := v.qualified[c]
		switch {
		case q == "":
		case outcomeCols[col.Name]:
			qualOutcomes = append(qualOutcomes, q)
		case !excluded(c):
			candidates = append(candidates, q)
		}
	}
	// Union of minimal backdoor sets per update attribute.
	chosen := map[string]bool{}
	for _, a := range updateAttrs {
		qa := v.qualified[v.Rel.Schema().MustIndex(a)]
		set, ok := model.Attr.BackdoorSet(qa, qualOutcomes, candidates)
		if !ok {
			// No valid backdoor within view attributes: fall back to all
			// candidate non-descendants (the conservative superset).
			bad := map[string]bool{}
			for _, d := range model.Attr.Descendants(qa) {
				bad[d] = true
			}
			for _, c := range candidates {
				if !bad[c] {
					set = append(set, c)
				}
			}
		}
		for _, q := range set {
			chosen[q] = true
		}
	}
	var out []string
	for c, col := range cols {
		if q := v.qualified[c]; q != "" && chosen[q] {
			out = append(out, col.Name)
		}
	}
	return out
}

// supportedFraction samples up to 200 updated rows and reports the fraction
// whose post-update feature combination occurs exactly in the training data.
func supportedFraction(est *estimatorSet, v *view, updates []hyperql.UpdateSpec, summaries []summaryFeature, inS []bool) float64 {
	n := v.Rel.Len()
	if n == 0 {
		return 1
	}
	step := n / 200
	if step < 1 {
		step = 1
	}
	// Each update's feature and view column, and each summary's feature (-1:
	// not a feature), found once for every sampled row.
	updFeat, updCol, sumFeat := make([]int, len(updates)), make([]int, len(updates)), make([]int, len(summaries))
	for k, u := range updates {
		updFeat[k], updCol[k] = est.featureIndex(u.Attr), v.Rel.Schema().MustIndex(u.Attr)
	}
	for k, s := range summaries {
		sumFeat[k] = est.featureIndex(s.name)
	}
	checked, supported := 0, 0
	x := make([]float64, len(est.featCols))
	for i := 0; i < n; i += step {
		if !inS[i] {
			continue
		}
		est.featureVectorInto(i, x)
		for k, u := range updates {
			x[updFeat[k]] = est.encodeAt(updFeat[k], u.Apply(v.Rel.Value(i, updCol[k])))
		}
		for k, s := range summaries {
			if fi := sumFeat[k]; fi >= 0 {
				x[fi] = s.post[i]
			}
		}
		checked++
		if est.hasSupport(x) {
			supported++
		}
	}
	if checked == 0 {
		return 1
	}
	return float64(supported) / float64(checked)
}

// appendPredicateAttrs extends the feature set, which holds the update
// attributes, with the view attributes referenced by WHEN and by the pre
// parts of the normalized FOR predicate, skipping duplicates.
func appendPredicateAttrs(featCols []string, when hyperql.Expr, disjuncts []disjunct) []string {
	have := map[string]bool{}
	for _, c := range featCols {
		have[c] = true
	}
	add := func(e hyperql.Expr) {
		for _, c := range hyperql.ColRefs(e) {
			if c.Time == hyperql.TimePost {
				continue
			}
			if !have[c.Name] {
				have[c.Name] = true
				featCols = append(featCols, c.Name)
			}
		}
	}
	add(when)
	for _, d := range disjuncts {
		for _, lit := range d.pre {
			add(lit)
		}
	}
	return featCols
}

// summaryFeature is a ψ summary column: the group mean of an update
// attribute over the tuples sharing a GroupBy value, before and after the
// update.
type summaryFeature struct {
	name   string
	update int // index of the update attribute among the query's updates
	attr   int // view column of that attribute
	group  int // view column the means are grouped by
	pre    []float64
	post   []float64
}

// buildSummaries derives ψ features from the model's cross-tuple edges whose
// source is an update attribute, with their pre-update group means. Groups
// are the codes of the GroupBy column (relation.Coded: Value.Key() identity),
// summed in row order.
func buildSummaries(v *view, model *causal.Model, updateAttrs []string) ([]summaryFeature, error) {
	if model == nil {
		return nil, nil
	}
	var out []summaryFeature
	for _, ce := range model.Cross {
		src := causal.Qualify(ce.FromRel, ce.FromAttr)
		ui, ai := -1, 0
		for i, a := range updateAttrs {
			if c := v.Rel.Schema().MustIndex(a); v.qualified[c] == src {
				ui, ai = i, c
			}
		}
		if ui < 0 {
			continue
		}
		gRel, gAttr := causal.SplitQualified(ce.GroupBy)
		if gRel == "" {
			gRel = ce.FromRel
		}
		gi := v.column(gRel, gAttr)
		if gi < 0 {
			return nil, fmt.Errorf("engine: cross-edge group attribute %q is not in the relevant view", gAttr)
		}
		sf := summaryFeature{
			name:   "psi_" + updateAttrs[ui] + "_by_" + v.Rel.Schema().Col(gi).Name,
			update: ui,
			attr:   ai,
			group:  gi,
		}
		sf.pre = groupMeans(v.Rel, gi, func(i int) float64 { return v.Rel.Value(i, ai).AsFloat() })
		out = append(out, sf)
	}
	return out, nil
}

// bindSummaries is psi with each summary's post-update group means under
// updates: a row WHEN selected contributes its updated value, the rest their
// own.
func bindSummaries(v *view, psi []summaryFeature, updates []hyperql.UpdateSpec, inS []bool) []summaryFeature {
	if len(psi) == 0 {
		return nil
	}
	out := slices.Clone(psi)
	for k := range out {
		s := &out[k]
		u := updates[s.update]
		s.post = groupMeans(v.Rel, s.group, func(i int) float64 { return postUpdate(u, inS[i], v.Rel.Value(i, s.attr)).AsFloat() })
	}
	return out
}

// groupMeans is, per row, the mean of val over the rows sharing the row's
// code in column group, summed in row order.
func groupMeans(rel *relation.Relation, group int, val func(i int) float64) []float64 {
	type acc struct {
		sum float64
		n   int
	}
	codes := rel.Coded(group)
	groups := make([]acc, len(codes.Values))
	for i := range rel.Len() {
		a := &groups[codes.At(i)]
		a.sum += val(i)
		a.n++
	}
	means := make([]float64, rel.Len())
	for i := range means {
		a := groups[codes.At(i)]
		means[i] = a.sum / float64(a.n)
	}
	return means
}
