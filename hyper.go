// Package hyper is a Go implementation of HypeR, the probabilistic
// hypothetical-reasoning framework of Galhotra, Gilad, Roy and Salimi
// (SIGMOD 2022): what-if queries ("what happens to average ratings if Asus
// laptop prices rise 10%?") and how-to queries ("how should price and color
// change to maximize ratings?") over relational databases, with the
// collateral effects of updates propagated through a probabilistic
// relational causal model.
//
// A Session binds a database and a causal model; queries are written in
// HypeRQL, the extended SQL of the paper:
//
//	db, model := dataset.Toy()
//	s := hyper.NewSession(db, model)
//	res, err := s.WhatIf(`
//	    USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand,
//	                AVG(T2.Rating) AS Rtng
//	         FROM Product AS T1, Review AS T2
//	         WHERE T1.PID = T2.PID
//	         GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand)
//	    WHEN Brand = 'Asus'
//	    UPDATE(Price) = 1.1 * PRE(Price)
//	    OUTPUT AVG(POST(Rtng))
//	    FOR PRE(Category) = 'Laptop'`)
//
// See DESIGN.md for the architecture. The paper's evaluation is EXPERIMENTS.md:
// `go run ./cmd/hyperbench -exp all -scale 0.02` prints its tables and
// TestFidelity (internal/experiments) holds them to the paper's shapes.
package hyper

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
	"hyper/internal/plan"
	"hyper/internal/relation"
)

// Re-exported relational building blocks.
type (
	// Value is a typed database value.
	Value = relation.Value
	// Column describes one attribute of a schema.
	Column = relation.Column
	// Schema is an ordered list of columns.
	Schema = relation.Schema
	// Relation is a named table.
	Relation = relation.Relation
	// Tuple is one row of a relation.
	Tuple = relation.Tuple
	// Database is a collection of relations with foreign keys.
	Database = relation.Database
	// ForeignKey links a child column to a parent column.
	ForeignKey = relation.ForeignKey
	// CausalModel is the attribute-level causal DAG plus cross-tuple edges.
	CausalModel = causal.Model
	// CrossEdge declares a cross-tuple causal dependency.
	CrossEdge = causal.CrossEdge
	// WhatIfResult is the result of a what-if query.
	WhatIfResult = engine.Result
	// HowToResult is the result of a how-to query.
	HowToResult = howto.Result
	// Mode selects the estimation variant (HypeR, HypeR-NB, Indep).
	Mode = engine.Mode
	// Kind is the dynamic type of a Value.
	Kind = relation.Kind
	// Query is a parsed HypeRQL query (Parse): a *WhatIfQuery or a
	// *HowToQuery.
	Query = hyperql.Query
	// WhatIfQuery is a parsed what-if query.
	WhatIfQuery = hyperql.WhatIf
	// HowToQuery is a parsed how-to query.
	HowToQuery = hyperql.HowTo
	// Progress receives coarse evaluation progress: stage is "tuples"
	// (engine per-tuple loop), "shards" (plan shards finished, locally or on
	// workers), "candidates" (how-to scoring pool), "combos" (brute-force
	// search) or "queries" (a server batch); total <= 0 means unknown.
	// Implementations must be safe for concurrent use.
	Progress = engine.ProgressFunc
)

// Value kinds, re-exported for schema declarations.
const (
	KindNull   = relation.KindNull
	KindBool   = relation.KindBool
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
)

// Value constructors and modes, re-exported for convenience.
var (
	Int    = relation.Int
	Float  = relation.Float
	String = relation.String
	Bool   = relation.Bool
	Null   = relation.Null
)

// Engine modes (Section 5 variants).
const (
	ModeFull  = engine.ModeFull
	ModeNB    = engine.ModeNB
	ModeIndep = engine.ModeIndep
)

// Constructors re-exported from the relation package.
var (
	NewDatabase  = relation.NewDatabase
	NewRelation  = relation.NewRelation
	NewSchema    = relation.NewSchema
	MustSchema   = relation.MustSchema
	LoadCSV      = relation.LoadCSV
	ReadCSV      = relation.ReadCSV
	ReadCSVKeyed = relation.ReadCSVKeyed
)

// NewCausalModel returns an empty causal model; add edges with AddEdge
// ("Rel.Attr" qualified names) and cross-tuple edges with AddCross.
func NewCausalModel() *CausalModel { return causal.NewModel() }

// Options configures query evaluation for a Session.
type Options struct {
	// Mode selects HypeR (ModeFull), HypeR-NB (ModeNB) or the Indep
	// baseline (ModeIndep).
	Mode Mode
	// SampleSize > 0 enables the HypeR-sampled variant with the given
	// training-sample size.
	SampleSize int
	// Seed makes evaluation reproducible.
	Seed int64
	// Buckets controls discretization of continuous attributes in how-to
	// candidate enumeration (default 8).
	Buckets int
	// Shards caps the worker fan-out of the shard-parallel evaluation
	// stages (tuple loops, per-shard estimator fitting, how-to candidate
	// scoring): 0 = GOMAXPROCS, 1 = serial. Purely an execution knob —
	// results are bit-identical for every value, because evaluation reduces
	// over a canonical shard plan derived from the data (see ShardRows).
	Shards int
	// ShardRows overrides the rows-per-shard granularity of the canonical
	// plan (default 4096). It is part of evaluation semantics: changing it
	// regroups floating-point reductions, so distinct granularities keep
	// distinct cache artifacts.
	ShardRows int
}

// WithShards returns a copy of o with the shard fan-out set.
func (o Options) WithShards(n int) Options {
	o.Shards = n
	return o
}

// Session binds a database and causal model for query evaluation.
//
// A Session is safe for concurrent use: each query works on a snapshot of
// the options taken when it starts, and the database and causal model are
// treated as read-only. A session created with NewSessionWithCache shares
// one engine cache across all of its queries (and callers), so repeated
// queries with the same USE/WHEN/FOR clauses reuse the materialized view,
// block decomposition, and trained estimators.
type Session struct {
	db    *Database
	model *CausalModel
	cache *engine.Cache
	plans *plan.Cache

	mu   sync.RWMutex
	opts Options
}

// Cache is the engine-level artifact cache shared by a session's queries.
// See NewCacheBounded for the eviction bound and Cache.Stats for hit/miss
// counters.
type Cache = engine.Cache

// CacheStats reports cache hit/miss/eviction counters.
type CacheStats = engine.CacheStats

// PlanCache is the bounded, fingerprint-keyed compiled-plan cache: repeat
// query shapes skip planning. It only memoizes — every session pushes WHEN
// predicates down into columnar scans through the planner's program, with or
// without one. See internal/plan for the contract.
type PlanCache = plan.Cache

// PlanCacheStats reports plan-cache hit/miss/eviction/compile counters.
type PlanCacheStats = plan.Stats

// NewCache returns an unbounded query-artifact cache.
func NewCache() *Cache { return engine.NewCache() }

// NewCacheBounded returns a cache evicting least-recently-used artifacts
// past max entries (max <= 0 means unbounded).
func NewCacheBounded(max int) *Cache { return engine.NewCacheBounded(max) }

// NewPlanCache returns a compiled-plan cache evicting least-recently-used
// artifacts past max entries (max <= 0 means unbounded).
func NewPlanCache(max int) *PlanCache { return plan.NewCache(max) }

// NewSession creates a session. model may be nil, in which case queries run
// in no-background mode (all attributes are treated as potential
// confounders). The session has no shared cache: each query (re)builds its
// artifacts, which keeps results independent of query history; long-lived
// callers should use NewSessionWithCache.
func NewSession(db *Database, model *CausalModel) *Session {
	return &Session{db: db, model: model}
}

// NewSessionWithCache creates a session whose queries share cache, so a
// repeated what-if query is served from memoized artifacts instead of
// rebuilding the view and retraining estimators. A nil cache allocates a
// fresh unbounded one. The cache must not be shared with sessions over a
// different database or causal model.
func NewSessionWithCache(db *Database, model *CausalModel, cache *Cache) *Session {
	if cache == nil {
		cache = engine.NewCache()
	}
	return &Session{db: db, model: model, cache: cache}
}

// Cache returns the session's shared cache (nil for sessions created with
// NewSession).
func (s *Session) Cache() *Cache { return s.cache }

// SetPlanCache attaches a compiled-plan cache shared by the session's
// queries (and by sessions later derived with With). Like the artifact
// cache it must only serve queries against this session's database; drop it
// with the session. A nil argument detaches it: queries then compile their
// plan per call and evaluate exactly as before. Queries already in flight
// keep the cache they started with.
func (s *Session) SetPlanCache(p *PlanCache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plans = p
}

// PlanCache returns the session's compiled-plan cache (nil when compiled
// plans are not kept).
func (s *Session) PlanCache() *PlanCache {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.plans
}

// With returns a derived session sharing this session's database, causal
// model and caches, with its own options. It is how a server applies
// per-request overrides (a shard fan-out, a different seed) without touching
// the shared session's state: the derived session is as concurrency-safe as
// the original, and artifacts still flow through the one shared cache.
func (s *Session) With(o Options) *Session {
	d := &Session{db: s.db, model: s.model, cache: s.cache, plans: s.PlanCache()}
	d.opts = o
	return d
}

// Version returns the MVCC snapshot version of the session's database: 0
// for an unversioned (bare NewDatabase) instance, otherwise the version set
// at creation plus one per Append.
func (s *Session) Version() int64 { return s.db.Version() }

// Append returns a new immutable session whose database extends this one's
// by the given rows (relation name -> tuples), with the snapshot version
// bumped by one. The receiver is untouched — queries running against it (or
// any earlier version) are never perturbed — and the derived session shares
// the receiver's causal model, caches, and options, so artifacts fitted for
// earlier snapshots keep serving queries pinned to them while the new
// version's cache identity is distinct from the first query on. The new
// version's artifacts are built from the newest cached earlier version's plus
// the appended rows wherever that gives the same answer bit for bit.
//
// Appended tuples are validated under the same rules as building the
// relation row by row (arity, kind coercion, primary-key uniqueness); any
// failure leaves every published version untouched and returns the error.
func (s *Session) Append(rows map[string][]Tuple) (*Session, error) {
	db, err := s.db.Extend(rows)
	if err != nil {
		return nil, err
	}
	d := &Session{db: db, model: s.model, cache: s.cache, plans: s.PlanCache()}
	d.opts = s.Options()
	return d, nil
}

// SetOptions replaces the session's evaluation options. Queries already in
// flight keep the options they started with.
func (s *Session) SetOptions(o Options) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts = o
}

// Options returns the session's evaluation options.
func (s *Session) Options() Options {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.opts
}

// DB returns the session database.
func (s *Session) DB() *Database { return s.db }

// Model returns the session's causal model (may be nil).
func (s *Session) Model() *CausalModel { return s.model }

// Validate checks the causal model against the database schema.
func (s *Session) Validate() error {
	if s.model == nil {
		return nil
	}
	return s.model.Validate(s.db)
}

// EngineOptions snapshots the session options into the engine's option form
// (including the shared caches). A query runs on one snapshot, not the live
// session state, so a concurrent SetOptions cannot tear it; the serving layer
// hands the snapshot to a distribution coordinator so locally prepared plans
// and remote workers agree on the semantic options.
func (s *Session) EngineOptions() engine.Options {
	return engineOptsFrom(s.Options(), s.cache, s.PlanCache())
}

func engineOptsFrom(o Options, cache *engine.Cache, plans *plan.Cache) engine.Options {
	return engine.Options{
		Mode:       o.Mode,
		SampleSize: o.SampleSize,
		Seed:       o.Seed,
		Shards:     o.Shards,
		ShardRows:  o.ShardRows,
		Cache:      cache,
		Plans:      plans,
	}
}

// howtoOpts snapshots the session options into how-to options reporting to
// progress (one snapshot for the whole query, so a concurrent SetOptions
// cannot mix two option versions).
func (s *Session) howtoOpts(progress Progress) howto.Options {
	o := s.Options()
	return howto.Options{
		Engine:   engineOptsFrom(o, s.cache, s.PlanCache()),
		Buckets:  o.Buckets,
		Progress: progress,
	}
}

// Parse parses a HypeRQL query without evaluating it; its String is the
// canonical text. Evaluating a parsed query first resolves every name it uses
// against the session's database: a name the database lacks fails there, at
// its source offset.
func Parse(src string) (Query, error) { return hyperql.Parse(src) }

// Run evaluates a parsed query: a what-if answers a *WhatIfResult, a how-to
// (the integer program) a *HowToResult. ctx is observed inside the
// evaluation, so a cancelled or expired context stops it mid-solve with
// ctx.Err(); progress, when non-nil, receives tuple updates for a what-if and
// one "candidates" update per scored candidate for a how-to.
func (s *Session) Run(ctx context.Context, q Query, progress Progress) (any, error) {
	switch q := q.(type) {
	case *WhatIfQuery:
		opts := s.EngineOptions()
		opts.Progress = progress
		return engine.EvaluateContext(ctx, s.db, s.model, q, opts)
	case *HowToQuery:
		return howto.Evaluate(ctx, s.db, s.model, q, s.howtoOpts(progress))
	}
	return nil, fmt.Errorf("hyper: unknown query type %T", q)
}

// WhatIf, WhatIfContext, HowTo and HowToContext are text helpers: Parse plus
// Run. They stay while the benchmark module compiles against them.

// WhatIf parses and evaluates a what-if query.
func (s *Session) WhatIf(src string) (*WhatIfResult, error) {
	return s.WhatIfContext(context.Background(), src, nil)
}

// WhatIfContext is WhatIf with cancellation and observability, as Run.
func (s *Session) WhatIfContext(ctx context.Context, src string, progress Progress) (*WhatIfResult, error) {
	return runText[*WhatIfQuery, *WhatIfResult](ctx, s, src, progress)
}

// HowTo parses and evaluates a how-to query via the integer-program
// formulation.
func (s *Session) HowTo(src string) (*HowToResult, error) {
	return s.HowToContext(context.Background(), src, nil)
}

// HowToContext is HowTo with cancellation and observability, as Run.
func (s *Session) HowToContext(ctx context.Context, src string, progress Progress) (*HowToResult, error) {
	return runText[*HowToQuery, *HowToResult](ctx, s, src, progress)
}

// runText parses src (Parse) as a query of kind Q and runs it (Run), which
// answers an R.
func runText[Q Query, R any](ctx context.Context, s *Session, src string, progress Progress) (R, error) {
	q, err := Parse(src)
	if err == nil {
		_, err = hyperql.As[Q](q)
	}
	var res any
	if err == nil {
		res, err = s.Run(ctx, q, progress)
	}
	r, _ := res.(R)
	return r, err
}

// HowToBruteForce evaluates a how-to query with the exhaustive Opt-HowTo
// baseline (exponential in the number of update attributes; for comparison
// and testing). ctx cancels it mid-search; progress, when non-nil, receives
// one "combos" update per evaluated combination.
func (s *Session) HowToBruteForce(ctx context.Context, q *HowToQuery, progress Progress) (*HowToResult, error) {
	return howto.BruteForce(ctx, s.db, s.model, q, s.howtoOpts(progress))
}

// HowToMinimizeCost solves the alternate how-to formulation (Section 4.3,
// footnote 3): minimize the total normalized L1 update cost subject to the
// query's TOMAXIMIZE aggregate reaching at least target. ctx and progress are
// Run's.
func (s *Session) HowToMinimizeCost(ctx context.Context, q *HowToQuery, target float64, progress Progress) (*HowToResult, error) {
	return howto.MinimizeCost(ctx, s.db, s.model, q, target, s.howtoOpts(progress))
}

// HowToLexicographic evaluates a preferential multi-objective how-to query:
// qs share USE/WHEN/HOWTOUPDATE/LIMIT and their objectives are optimized in
// the given priority order. ctx and progress are Run's.
func (s *Session) HowToLexicographic(ctx context.Context, progress Progress, qs ...*HowToQuery) (*HowToResult, error) {
	return howto.Lexicographic(ctx, s.db, s.model, qs, s.howtoOpts(progress))
}

// Explain plans a what-if query without evaluating it, returning a
// human-readable description of the relevant view, the block decomposition,
// the FOR normalization, the conditioning (backdoor) set, and the chosen
// estimator. ctx carries the trace and meter the preparation's stages are
// recorded in, and stops it between stages.
func (s *Session) Explain(ctx context.Context, q *WhatIfQuery) (string, error) {
	opts := s.EngineOptions()
	opts.DryRun = true
	res, err := engine.EvaluateContext(ctx, s.db, s.model, q, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "what-if plan (%s mode)\n", res.Mode)
	fmt.Fprintf(&b, "  relevant view: %d rows (built in %s)\n", res.ViewRows, res.ViewTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  update set S:  %d rows selected by WHEN\n", res.UpdatedRows)
	fmt.Fprintf(&b, "  blocks:        %d independent blocks\n", res.Blocks)
	fmt.Fprintf(&b, "  FOR disjuncts: %d\n", res.Disjuncts)
	fmt.Fprintf(&b, "  backdoor set:  %v\n", res.Backdoor)
	fmt.Fprintf(&b, "  estimator:     %s over %d training rows\n", res.EstimatorUsed, res.SampledRows)
	fmt.Fprintf(&b, "  compiled plan (cache %s):\n", map[bool]string{true: "hit", false: "miss"}[res.PlanCacheHit])
	for _, line := range strings.Split(strings.TrimRight(res.PlanText, "\n"), "\n") {
		fmt.Fprintf(&b, "    %s\n", line)
	}
	return b.String(), nil
}
