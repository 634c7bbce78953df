package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
	"hyper/internal/shard"
)

// Prepared is a what-if evaluation prepared up to its update constants. Every
// part of it is a function of USE, WHEN, FOR, OUTPUT, the options and which
// attributes are updated: the view, the blocks, the WHEN plan and set, the
// normalised FOR, the backdoor set, the feature columns and the tuple-class
// key. Evaluate binds one update of those attributes to it — the ψ post
// means, the support check with its forest fallback, the estimator-set
// lookup — and runs the one evaluation path: each tuple class's value once,
// then one fold of the rows in plan order (evaluator.evaluate). The class
// partition (with each class's first row) and whether the rows are their own
// blocks, which picks the fold's regime, are found by the first evaluation
// and shared by the rest.
//
// A how-to's candidate what-ifs for one attribute are updates of one
// Prepared (Section 4.3). Beyond what the cache already holds (the view, the
// blocks) a Prepared keeps 2 B per view row, 5 past 256 classes: the WHEN
// set (one bool a row) and, once evaluated, the partition (a byte a row, or
// four). Partial evaluations add each plan shard's class layout (a byte or
// two a row where codes pay), and bind keeps its last support check there.
// Prepare keeps it in Options.Cache under its identity (preparedKey), so
// every caller with a cache — a dist worker's frame, a session's how-to —
// prepares each shape once and the cache's bound evicts it. None of
// Options.Shards, Options.Progress and Options.DryRun is part of it: bind
// takes them from each call. It is safe for concurrent Evaluate calls.
type Prepared struct {
	// o is the options the Prepared was prepared under. Its Shards,
	// Progress and DryRun are never read: bind takes them from its call.
	o    Options
	diag Result // what the shape decides: each bound Result starts from a copy

	db              *relation.Database
	bound                  // the view and the names resolve found in it
	whenKey, forKey string // with viewKey, the estimator-set identity, less features and options
	// blockOf is R's tuples' block ids (nil: one block) and baseRows R's row
	// behind each view row (nil: view row i is R's row i).
	blockOf  []int32
	baseRows []int32
	nBlocks  int
	inS      []bool // the WHEN set
	agg      hyperql.AggFunc
	// disjuncts is the normalised FOR; psi the ψ summaries with their
	// pre-update means (post means are per update).
	disjuncts []disjunct
	psi       []summaryFeature
	featCols  []string
	plan      shard.Plan

	yIdx    int   // view column index of Y (-1 when COUNT)
	updIdx  []int // view column indexes of update attrs
	featUpd []int // feature positions of update attrs
	featSum []int // feature positions of summary features

	// Distinct post events across all disjuncts, identified once so the
	// per-tuple inclusion-exclusion works on small integer ids: the hot
	// path resolves an event subset to its trained regressor through a
	// worker-local memo, touching neither literal strings nor the shared
	// estimator lock.
	events  [][]hyperql.Expr
	eventID []int // disjunct index -> event id (-1 = empty post)

	key   classKey
	keyed bool // false: every row is its own class
	part  struct {
		once    sync.Once
		classOf *relation.Codes
		first   []uint32
	}
	// layouts is each plan shard's class layout, built on the shard's first
	// partial evaluation (evaluator.layout); nil without a class key.
	layouts []shardLayout
	// support is bind's last support check (supported).
	support atomic.Pointer[supportCheck]
	// rowsOwnBlocks reports whether every view row is a block of its own, in
	// ascending block order, finding out on the first call.
	rowsOwnBlocks func() bool
}

// Prepare resolves the update-constant-independent half of the what-if q:
// every step of EvaluateContext up to the estimator-set lookup. q's updates
// name the attributes later updates must update, in the same order; their
// constants are not read. With opts.Cache set it returns the shape's
// Prepared from the cache, preparing it on a miss, so every caller shares
// one per shape; without one it prepares per call. The lookup is a prepare
// span with cache_hit (a miss's view, blocks and plan stages nest under
// it), not a metered stage, so the meter's stages stay disjoint. A failed or
// cancelled preparation caches nothing (lru.Cache.Do).
func Prepare(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options) (*Prepared, error) {
	ctx, sp := obs.Start(ctx, "prepare")
	defer sp.End()
	shape := opts.withDefaults()
	shape.Shards, shape.Progress, shape.DryRun = 0, nil, false
	p, hit, err := memo(ctx, opts.Cache, preparedKey(db, q, shape), func() (*Prepared, error) {
		return prepare(ctx, db, model, q, shape)
	})
	sp.Set("cache_hit", hit)
	return p, err
}

// Evaluate answers the prepared what-if with updates in place of the
// prepared query's: bit for bit what EvaluateContext returns for that query,
// since it is EvaluateContext's evaluation after the preparation. updates
// must update the prepared attributes in the prepared order. opts is the
// call's: only its Shards, Progress and DryRun are read, so callers sharing
// a cached Prepared each keep their own fan-out and callback. The view,
// block and plan diagnostics of the Result are the Prepared's, and Total
// counts from this call.
func (p *Prepared) Evaluate(ctx context.Context, updates []hyperql.UpdateSpec, opts Options) (*Result, error) {
	e, err := p.bind(ctx, updates, time.Now(), opts)
	if err != nil {
		return nil, err
	}
	return e.evaluate(ctx)
}

func prepare(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options) (*Prepared, error) {
	o := opts.withDefaults()
	if model == nil && o.Mode == ModeFull {
		o.Mode = ModeNB
	}
	p := &Prepared{o: o, diag: Result{Mode: o.Mode}}
	res := &p.diag

	// Step 1 (resolve): the relevant view of USE, memoized when a cache is
	// given, with every name q uses resolved against it. Each stage is timed
	// once, by an obs.Stage, for its span, meter entry and Result field.
	var err error
	if p.bound, err = resolve(ctx, db, q, o.Cache); err != nil {
		return nil, err
	}
	v := p.v
	res.ViewRows, res.ViewTime = v.Rel.Len(), p.viewTime
	p.db, p.agg = db, q.Output.Func
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 2: block-independent decomposition (memoized likewise). The
	// decomposition of the database is the model's alone — one per version,
	// whatever the query — and a view row's block is that of its base tuple
	// of R (blockAt).
	_, stage := obs.StartStage(ctx, "blocks")
	blocksHit := false
	res.Blocks = 1
	if model != nil && !o.DisableBlocks {
		var b *causal.Blocks
		b, blocksHit, err = memo(ctx, o.Cache, kindRowBlocks+db.VersionTag(), func() (*causal.Blocks, error) {
			// The newest cached decomposition of an earlier version, extended
			// by the rows appended since, when that cannot renumber a block.
			var b *causal.Blocks
			var err error
			fromAncestor(lineage{o.Cache, db, func(tag string) string { return kindRowBlocks + tag }},
				func(a *causal.Blocks, anc relation.Ancestor) bool {
					var ok bool
					if b, ok, err = a.Extend(db, model, anc); ok {
						setDerived(stage, anc.Version, db.TotalRows()-anc.TotalRows())
					}
					return true
				})
			if b != nil || err != nil {
				return b, err
			}
			return causal.Decompose(db, model)
		})
		if err != nil {
			return nil, err
		}
		p.blockOf, res.Blocks = b.ByRel[v.Tables[p.from].Name()], b.N
	}
	p.baseRows, p.nBlocks = v.Rows[p.from], res.Blocks
	stage.Set("blocks", res.Blocks)
	stage.Set("cache_hit", blocksHit)
	res.BlockTime = stage.End()

	// Step 3: WHEN defines the update set S (pre-update values only). The
	// planner owns the whole step: the clause compiles — once per shape when
	// a plan cache is attached, per call otherwise — into a cost-ordered
	// pushdown program scanning the view's column codes
	// (relation.Relation.Coded), and a tree it cannot prove error-free runs
	// as the degenerate whole-tree program, so S and any error are those of
	// a row-at-a-time sqlmini.EvalBool loop to the bit.
	_, stage = obs.StartStage(ctx, "plan")
	qp, planHit := o.Plans.WhatIf(db, p.viewKey, q, v.Rel)
	res.PlanFingerprint = qp.Fingerprint
	res.PlanCacheHit = planHit
	res.PlanText = qp.Explain()
	p.inS = make([]bool, v.Rel.Len())
	res.PlanPushed, err = o.Plans.Apply(qp, q, v.Rel, p.inS)
	stage.Set("cache_hit", planHit)
	stage.Set("pushed", res.PlanPushed)
	stage.Set("fallback", qp.Fallback)
	res.PlanTime = stage.End()
	if err != nil {
		return nil, fmt.Errorf("engine: WHEN: %w", err)
	}
	for _, s := range p.inS {
		if s {
			res.UpdatedRows++
		}
	}

	// Step 4, post-update values, is not a stage: a row's is postUpdate of its
	// WHEN bit and pre-update value, computed where tuple() reads it.

	// Step 5: cross-tuple summary features (the ψ functions of Section 2.2):
	// when the model declares a cross-tuple edge out of an update attribute,
	// the group mean of that attribute becomes a feature, and its post-update
	// shift (bindSummaries) propagates the update to non-updated tuples in the
	// same group.
	if p.psi, err = buildSummaries(v, model, p.updateAttrs); err != nil {
		return nil, err
	}

	// Step 6, the OUTPUT aggregate (Y or the COUNT condition), is resolved
	// with the names in step 1.

	// Step 7: normalize FOR into disjoint pre/post disjuncts.
	// The caps are fixed: at most 64 disjuncts (A.2.3 — the 2^t blowup is in
	// query complexity, not data) and 64 distinct values per mixed Pre/Post
	// literal (A.2.4). Distinct post events never outnumber disjuncts, so an
	// event subset always fits a 64-bit mask.
	if p.disjuncts, err = normalizeFor(q.For, v.Rel, 64, 64); err != nil {
		return nil, err
	}
	res.Disjuncts = len(p.disjuncts)

	// Step 8: backdoor set.
	res.Backdoor = backdoorColumns(v, p.from, model, p.updateAttrs, p.yCol, p.outCond, p.disjuncts, o.Mode)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 9: the feature columns. Proposition 2 conditions the post-update
	// probabilities on μ_When and μ_For,Pre, so the attributes those
	// predicates reference join the conditioning features (this is what
	// makes runtime grow with the number of FOR attributes, Figure 11a).
	p.featCols = append(slices.Clone(p.updateAttrs), res.Backdoor...)
	for _, s := range p.psi {
		p.featCols = append(p.featCols, s.name)
	}
	if o.Mode != ModeIndep {
		p.featCols = appendPredicateAttrs(p.featCols, q.When, p.disjuncts)
	}
	p.whenKey, p.forKey = shapeKeys(q)

	// Step 10 is the evaluation (evaluator.evaluate); resolve its columns, post
	// events, class key and the canonical shard plan here so every update
	// shares one construction.
	p.resolveColumns()
	if v.Rel.Len() > 0 {
		p.key, p.keyed = p.classKey()
	}
	p.plan = shard.Rows(v.Rel.Len(), o.ShardRows)
	if p.keyed {
		p.layouts = make([]shardLayout, p.plan.Shards())
	}
	res.ShardPlan = p.plan.Shards()
	p.rowsOwnBlocks = sync.OnceValue(p.blocksAscend)
	return p, nil
}

// shapeKeys renders q's WHEN clause, and its FOR and OUTPUT clauses, with
// their literals: the text part of the estimator-set and Prepared
// identities.
func shapeKeys(q *hyperql.WhatIf) (whenKey, forKey string) {
	if q.When != nil {
		whenKey = q.When.String()
	}
	if q.For != nil {
		forKey = q.For.String()
	}
	forKey += "\x00"
	if q.Output != nil { // prepare refuses the query without one
		forKey += q.Output.String()
	}
	return whenKey, forKey
}

// resolveColumns locates Y, the update attributes and the ψ features among
// the view columns and the features, and numbers the distinct post events
// (by canonical key) so tuples refer to them by id.
func (p *Prepared) resolveColumns() {
	sch := p.v.Rel.Schema()
	p.yIdx = -1
	if p.yCol != "" {
		p.yIdx = sch.MustIndex(p.yCol)
	}
	// featCols starts with the update attributes and holds every ψ name.
	for ai, a := range p.updateAttrs {
		p.updIdx = append(p.updIdx, sch.MustIndex(a))
		p.featUpd = append(p.featUpd, ai)
	}
	for _, s := range p.psi {
		p.featSum = append(p.featSum, slices.Index(p.featCols, s.name))
	}
	p.eventID = make([]int, len(p.disjuncts))
	seenEvents := map[string]int{}
	for k, d := range p.disjuncts {
		if len(d.post) == 0 {
			p.eventID[k] = -1
			continue
		}
		key := eventKey(d.post)
		id, ok := seenEvents[key]
		if !ok {
			id = len(p.events)
			seenEvents[key] = id
			p.events = append(p.events, d.post)
		}
		p.eventID[k] = id
	}
}

// partition returns the class partition of the view rows and each class's
// first row (classKey.partition), building them on the first call; built
// reports whether this call did. It is nil when every row is its own class.
func (p *Prepared) partition() (classOf *relation.Codes, first []uint32, built bool) {
	if !p.keyed {
		return nil, nil, false
	}
	p.part.once.Do(func() {
		p.part.classOf, p.part.first = p.key.partition(p.inS)
		built = true
	})
	return p.part.classOf, p.part.first, built
}

// blocksAscend reports whether blockAt strictly increases over the rows.
func (p *Prepared) blocksAscend() bool {
	prev := -1
	for i := range p.v.Rel.Len() {
		b := p.blockAt(i)
		if b <= prev {
			return false
		}
		prev = b
	}
	return true
}

// blockAt is view row i's block: that of its base tuple of R. It clamps
// defensively: tuples outside the decomposition map to 0.
func (p *Prepared) blockAt(i int) int {
	if p.blockOf == nil {
		return 0
	}
	r := i
	if p.baseRows != nil {
		r = int(p.baseRows[i])
	}
	if b := int(p.blockOf[r]); b < p.nBlocks {
		return b
	}
	return 0
}

// bind is Evaluate's first half: the update's ψ post means, the
// estimator-set lookup (the train stage) and the evaluator. start is when the
// evaluation began, for Result.Total. call supplies the execution knobs,
// Shards, Progress and DryRun, which the bound evaluation reads in place of
// the Prepared's: a cached Prepared serves calls that differ in them.
func (p *Prepared) bind(ctx context.Context, updates []hyperql.UpdateSpec, start time.Time, call Options) (*evaluator, error) {
	if !slices.EqualFunc(updates, p.updateAttrs, func(u hyperql.UpdateSpec, a string) bool { return u.Attr == a }) {
		attrs := make([]string, len(updates))
		for i, u := range updates {
			attrs[i] = u.Attr
		}
		return nil, fmt.Errorf("engine: prepared for updates of %v, got updates of %v", p.updateAttrs, attrs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := p.o
	o.Shards, o.Progress, o.DryRun = call.Shards, call.Progress, call.DryRun
	res := p.diag
	res.ShardWorkers = p.plan.Workers(o.Shards)
	summaries := bindSummaries(p.v, p.psi, updates, p.inS)
	meter := obs.MeterFromContext(ctx)

	_, stage := obs.StartStage(ctx, "train")
	estHit := false
	var estLineage lineage
	makeEst := func(eo Options) (*estimatorSet, error) {
		estLineage = p.estLineage(eo)
		est, hit, err := memo(ctx, eo.Cache, estLineage.key(p.db.VersionTag()), func() (*estimatorSet, error) {
			return newEstimatorSet(p.v, p.featCols, summaries, len(p.updateAttrs), eo, estLineage, stage), nil
		})
		if estHit = hit; hit {
			// Set-level hits are the fan-out-independent "served from cache"
			// signal; per-model hits inside tuple() are worker-local
			// memo traffic and deliberately not charged.
			meter.Charge(obs.MeterJSON{FitsCached: 1})
		}
		return est, err
	}
	endTrain := func(est *estimatorSet) {
		res.EstimatorUsed = est.kind
		res.SampledRows = len(est.trainRows)
		stage.Set("estimator", est.kind)
		stage.Set("sampled_rows", res.SampledRows)
		stage.Set("cache_hit", estHit)
		res.TrainTime = stage.End()
	}
	est, err := makeEst(o)
	if err != nil {
		return nil, err
	}
	if est.kind == "freq" && o.Estimator != EstimatorFreq {
		// The exact frequency estimator cannot extrapolate to update values
		// with no support in the data; when most prediction points are
		// unsupported, fall back to the generalizing forest (the paper's
		// default estimator).
		frac, cached := p.supported(est, updates, summaries)
		stage.Set("support", frac)
		stage.Set("support_cached", cached)
		if frac < 0.8 {
			o2 := o
			o2.Estimator = EstimatorForest
			if est, err = makeEst(o2); err != nil {
				return nil, err
			}
		}
	}
	endTrain(est)
	if o.DryRun {
		// After the fallback, so a plan names the estimator the evaluation
		// would use.
		res.Total = time.Since(start)
		return &evaluator{Prepared: p, o: o, res: &res, start: start}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.ShardedFit = est.shardedFit()
	return &evaluator{Prepared: p, o: o, res: &res, start: start, ctx: ctx, est: est, lineage: estLineage,
		updates: updates, summaries: summaries}, nil
}

// supportCheck is a support check bind made: the supportedFraction of
// updates against the estimator set est. It is immutable once stored.
type supportCheck struct {
	est     weak.Pointer[estimatorSet] // weak: the cache, not the Prepared, keeps the set
	updates []hyperql.UpdateSpec
	frac    float64
}

// supported is the supportedFraction of updates against est, the freq
// estimator set they bound to. A repeat of the last check, the same set and
// the same updates, answers without the sample; cached reports whether it
// did. Any other check replaces the last.
func (p *Prepared) supported(est *estimatorSet, updates []hyperql.UpdateSpec, summaries []summaryFeature) (frac float64, cached bool) {
	id := weak.Make(est)
	if last := p.support.Load(); last != nil && last.est == id && slices.EqualFunc(last.updates, updates, sameUpdate) {
		return last.frac, true
	}
	frac = supportedFraction(est, p.v, updates, summaries, p.inS)
	p.support.Store(&supportCheck{est: id, updates: slices.Clone(updates), frac: frac})
	return frac, false
}

// sameUpdate reports whether two updates apply the same function to the same
// attribute: their constants alike to the bit (a -0 is not a +0).
func sameUpdate(a, b hyperql.UpdateSpec) bool {
	return a.Attr == b.Attr && a.Form == b.Form && a.Const == b.Const &&
		math.Float64bits(a.Const.AsFloat()) == math.Float64bits(b.Const.AsFloat())
}

// estLineage names the estimator set of this shape under eo at any version
// of the database.
func (p *Prepared) estLineage(eo Options) lineage {
	use := strings.TrimPrefix(p.viewKey, versioned(p.db.VersionTag(), ""))
	return lineage{eo.Cache, p.db, func(tag string) string {
		return kindEst + estKey(versioned(tag, use), p.whenKey, p.forKey, p.featCols, eo)
	}}
}
