package plan

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"hyper/internal/hyperql"
	"hyper/internal/lru"
	"hyper/internal/relation"
)

// Cache is the bounded fingerprint-keyed plan cache: compiled what-if plans
// keyed by shape fingerprint over the schema signature, in one lru.Cache. The
// bound caps plans only — the column data plans read (stats, codes) is not
// held here but memoized per column on the relation itself
// (relation.Relation.Coded), where it lives and dies with the relation.
//
// Cache identity is fingerprint + schema signature: hyperql.Fingerprint
// hashes the signature into the key's domain, so a structurally identical
// query against a re-uploaded database with a different schema can never be
// served a stale pushdown program. Compilation is single-flight per
// fingerprint (lru.Cache.Do): of concurrent lookups missing the same shape,
// one counts the miss and compiles, the rest count hits and wait for its plan.
//
// All methods are safe for concurrent use. Like engine.Cache, a Cache must
// only be shared across queries against the same database.
type Cache struct {
	plans     *lru.Cache[*WhatIfPlan]
	compiles  atomic.Uint64
	onCompile atomic.Pointer[func(ms float64)]
}

// NewCache returns an empty plan cache holding at most max plans; max <= 0
// means unbounded.
func NewCache(max int) *Cache {
	return &Cache{plans: lru.New[*WhatIfPlan](max, nil)}
}

// SetCompileObserver installs a callback invoked with each plan compilation
// latency in milliseconds (the serving layer feeds its histogram through
// it). Pass nil to remove. Observers must be safe for concurrent use.
func (c *Cache) SetCompileObserver(fn func(ms float64)) {
	if fn == nil {
		c.onCompile.Store(nil)
		return
	}
	c.onCompile.Store(&fn)
}

// Stats is a point-in-time snapshot of plan-cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Compiles counts plan compilations (misses that built a plan).
	Compiles uint64 `json:"compiles"`
	Entries  int    `json:"entries"`
	// MaxEntries is the configured bound (0 = unbounded).
	MaxEntries int `json:"max_entries"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	st := c.plans.Stats()
	return Stats{
		Hits:       st.Hits,
		Misses:     st.Misses,
		Evictions:  st.Evictions,
		Compiles:   c.compiles.Load(),
		Entries:    st.Entries,
		MaxEntries: st.MaxEntries,
	}
}

// Len returns the current number of cached plans.
func (c *Cache) Len() int { return c.plans.Len() }

// dataKey is the cache-identity string of a database: the schema signature,
// plus — for MVCC-versioned instances — the snapshot version. Version 0 (the
// bare-library default) keeps the historical identity so plan goldens and
// unversioned callers are untouched; any non-zero version makes every
// fingerprint and supporting-artifact key version-specific, so a query
// pinned "as of v" keeps hitting v's artifacts after appends while the new
// head can never be served stale stats.
func dataKey(db *relation.Database) string {
	sig := Signature(db)
	if tag := db.VersionTag(); tag != "" {
		return sig + "\x00" + tag
	}
	return sig
}

// Signature canonically describes a database schema: every relation in
// database order with its column names and kinds. It is the second half of
// plan-cache identity (the first being the query shape fingerprint).
func Signature(db *relation.Database) string {
	var b strings.Builder
	for _, name := range db.Names() {
		rel := db.Relation(name)
		b.WriteString(name)
		b.WriteByte('(')
		for i, col := range rel.Schema().Columns() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(col.Name)
			b.WriteByte(':')
			b.WriteString(col.Kind.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Fingerprint returns the 16-hex shape fingerprint keying q's plan in a
// cache over db — hyperql.Fingerprint with the schema signature (and, for
// versioned databases, the snapshot version) folded into the hash domain.
func Fingerprint(db *relation.Database, q hyperql.Query) string {
	return hyperql.Fingerprint("plan\x00"+dataKey(db), q)
}

// WhatIf returns the compiled plan for q against the resolved relevant view
// rel (compiling and caching on miss) and whether it was a cache hit. A nil c
// keeps nothing: every call compiles, exactly as a miss would. The view-key
// argument is unused — a plan's column data is memoized on rel, not under a
// cache key — and stays only so callers keep their shape.
func (c *Cache) WhatIf(db *relation.Database, _ string, q *hyperql.WhatIf, rel *relation.Relation) (*WhatIfPlan, bool) {
	fp := Fingerprint(db, q)
	compile := func() *WhatIfPlan {
		p := Compile(rel, q.When)
		p.Fingerprint = fp
		p.explain = renderExplain(p, q)
		return p
	}
	if c == nil {
		return compile(), false
	}
	// Compile cannot fail and a waiter has nothing to give up on, so Do's
	// error is always nil.
	p, hit, _ := c.plans.Do(context.Background(), fp, func() (*WhatIfPlan, error) {
		start := time.Now()
		p := compile()
		c.compiles.Add(1)
		if obs := c.onCompile.Load(); obs != nil {
			(*obs)(float64(time.Since(start).Nanoseconds()) / 1e6)
		}
		return p, nil
	})
	return p, hit
}

// Apply runs p over rel into inS (len rel.Len()) with q's literals; it is
// p.Apply(q.When, rel, inS) and reads no cache state, so a nil c is fine.
func (c *Cache) Apply(p *WhatIfPlan, q *hyperql.WhatIf, rel *relation.Relation, inS []bool) (pushed int, err error) {
	return p.Apply(q.When, rel, inS)
}
