package plan

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// Cache is the bounded fingerprint-keyed plan cache: compiled what-if plans
// keyed by shape fingerprint over the schema signature, in one LRU list. The
// bound caps plans only — the column data plans read (stats, codes) is not
// held here but memoized per column on the relation itself
// (relation.Relation.Coded), where it lives and dies with the relation.
//
// Cache identity is fingerprint + schema signature: hyperql.Fingerprint
// hashes the signature into the key's domain, so a structurally identical
// query against a re-uploaded database with a different schema can never be
// served a stale pushdown program. Compilation is single-flight per
// fingerprint: of concurrent lookups missing the same shape, one counts the
// miss and compiles, the rest count hits and wait for its plan.
//
// All methods are safe for concurrent use. Like engine.Cache, a Cache must
// only be shared across queries against the same database.
type Cache struct {
	mu        sync.Mutex
	entries   map[string]*entry // by fingerprint
	head      *entry            // most recently used
	tail      *entry            // least recently used
	max       int               // maximum entries; 0 = unbounded
	onCompile func(ms float64)

	hits, misses, evictions, compiles uint64
}

type entry struct {
	key        string
	once       sync.Once // compiles plan; later lookups wait on it
	plan       *WhatIfPlan
	prev, next *entry
}

// NewCache returns an empty plan cache holding at most max plans; max <= 0
// means unbounded.
func NewCache(max int) *Cache {
	if max < 0 {
		max = 0
	}
	return &Cache{entries: make(map[string]*entry), max: max}
}

// SetCompileObserver installs a callback invoked with each plan compilation
// latency in milliseconds (the serving layer feeds its histogram through
// it). Pass nil to remove. Observers must be safe for concurrent use.
func (c *Cache) SetCompileObserver(fn func(ms float64)) {
	c.mu.Lock()
	c.onCompile = fn
	c.mu.Unlock()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Compiles:   c.compiles,
		Entries:    len(c.entries),
		MaxEntries: c.max,
	}
}

// Len returns the current number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// lookup returns fp's entry, promoting it on a hit and inserting an empty
// one (evicting past the bound) on a miss.
func (c *Cache) lookup(fp string) (e *entry, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[fp]; ok {
		c.hits++
		c.moveToFront(e)
		return e, true
	}
	c.misses++
	e = &entry{key: fp}
	c.entries[fp] = e
	c.pushFront(e)
	for c.max > 0 && len(c.entries) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.evictions++
	}
	return e, false
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// dataKey is the cache-identity string of a database: the schema signature,
// plus — for MVCC-versioned instances — the snapshot version. Version 0 (the
// bare-library default) keeps the historical identity so plan goldens and
// unversioned callers are untouched; any non-zero version makes every
// fingerprint and supporting-artifact key version-specific, so a query
// pinned "as of v" keeps hitting v's artifacts after appends while the new
// head can never be served stale stats.
func dataKey(db *relation.Database) string {
	sig := Signature(db)
	if v := db.Version(); v > 0 {
		return sig + "\x00@v" + strconv.FormatInt(v, 10)
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
	if c == nil {
		c = NewCache(0)
	}
	e, hit := c.lookup(Fingerprint(db, q))
	e.once.Do(func() {
		start := time.Now()
		e.plan = Compile(rel, q.When)
		e.plan.Fingerprint = e.key
		e.plan.explain = renderExplain(e.plan, q)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		c.mu.Lock()
		c.compiles++
		obs := c.onCompile
		c.mu.Unlock()
		if obs != nil {
			obs(ms)
		}
	})
	return e.plan, hit
}

// Apply runs p over rel into inS (len rel.Len()) with q's literals; it is
// p.Apply(q.When, rel, inS) and reads no cache state, so a nil c is fine.
func (c *Cache) Apply(p *WhatIfPlan, q *hyperql.WhatIf, rel *relation.Relation, inS []bool) (pushed int, err error) {
	return p.Apply(q.When, rel, inS)
}

// AttrRank orders HOWTOUPDATE attributes for candidate scoring by ascending
// base-relation cardinality (most selective attribute first — its frequency
// estimators are cheapest and its candidates prune fastest), original order
// breaking ties. It returns nil — meaning "keep the query order" — when the
// USE clause is a sub-select (no base relation to read cardinalities from)
// or an attribute is missing. Only the named attributes' columns are
// projected, and the candidate what-ifs' encoders reuse those projections.
func AttrRank(db *relation.Database, use *hyperql.UseClause, attrs []string) map[string]int {
	if use == nil || use.Table == "" {
		return nil
	}
	rel := db.Relation(use.Table)
	if rel == nil {
		return nil
	}
	card := make(map[string]int, len(attrs))
	for _, a := range attrs {
		ci, ok := rel.Schema().Index(a)
		if !ok {
			return nil
		}
		card[a] = rel.Coded(ci).Card()
	}
	order := append([]string(nil), attrs...)
	sort.SliceStable(order, func(i, j int) bool {
		return card[order[i]] < card[order[j]]
	})
	rank := make(map[string]int, len(order))
	for i, a := range order {
		rank[a] = i
	}
	return rank
}
