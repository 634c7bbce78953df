package engine

import (
	"context"
	"strconv"
	"strings"

	"hyper/internal/hyperql"
	"hyper/internal/lru"
	"hyper/internal/relation"
)

// Cache memoizes the expensive, update-constant-independent artifacts of
// what-if evaluation across related queries: the materialized relevant view,
// the block decomposition, and the trained estimator set. The how-to engine
// evaluates one candidate what-if query per permissible update (Definition
// 7); all candidates for the same attribute set share the USE/WHEN/FOR
// clauses and therefore the same view, blocks, features, and training
// labels — only the prediction point changes. Sharing a Cache makes the
// how-to IP construction train each regressor once, matching the paper's
// "training a regression function over the dataset" description of the IP
// objective (Section 4.3).
//
// A long-lived serving process (cmd/hyperd) shares one Cache per session
// across every query against that session, so the cache is bounded: when a
// maximum entry count is set, the least recently used artifact is evicted
// on insertion past the bound. Hit/miss/eviction counters are maintained
// for observability (the daemon's /v1/stats endpoint reports them).
//
// All methods are safe for concurrent use. A Cache must only be reused
// across queries against the same database and causal model.
type Cache = lru.Cache[any]

// Key prefixes per artifact kind: one LRU orders every kind together, so keys
// are kind-prefixed and cannot collide.
const (
	kindView      = "v\x00" // + view key: the relevant view of a USE
	kindRowBlocks = "r\x00" // + version tag: the database's block decomposition (causal.Blocks)
	kindEst       = "e\x00"
	kindPrepared  = "p\x00" // + preparedKey: a partial evaluation's Prepared
)

// NewCache returns an empty, unbounded cache (the right choice for a single
// how-to evaluation or a short-lived batch of related queries).
func NewCache() *Cache { return NewCacheBounded(0) }

// NewCacheBounded returns an empty cache holding at most max artifacts
// (views, block decompositions, and estimator sets each count as one);
// max <= 0 means unbounded. Long-lived daemons should set a bound so the
// cache cannot grow without limit.
func NewCacheBounded(max int) *Cache { return lru.New[any](max, nil) }

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats = lru.Stats

// memo returns the artifact cached under key, building it on a miss. Builds
// are single-flight (lru.Cache.Do): concurrent cold queries sharing c build
// each artifact once and the rest wait for it. A nil c builds every time.
func memo[T any](ctx context.Context, c *Cache, key string, build func() (T, error)) (v T, hit bool, err error) {
	if c == nil {
		v, err = build()
		return v, false, err
	}
	a, hit, err := c.Do(ctx, key, func() (any, error) { return build() })
	if err != nil {
		return v, false, err
	}
	return a.(T), hit, nil
}

// lineage locates the versions an artifact can derive from: the cache
// holding them, the database whose ancestors they are, and the artifact's
// key at a version tag.
type lineage struct {
	c   *Cache
	db  *relation.Database
	key func(tag string) string
}

// fromAncestor is the one way a version's artifact derives from an earlier
// version's. It probes the cache for the artifact at each version db extends,
// newest first, and hands each one it holds to derive with that version's
// row counts, until derive reports that it is done. The probe (Peek) moves no
// hit or miss counter and no recency, and whatever derive builds must hold no
// pointer to the artifact it read: a derived artifact outlives its ancestor
// in the cache, and must not keep it (or its own ancestors) alive.
func fromAncestor[T any](l lineage, derive func(from T, anc relation.Ancestor) (done bool)) {
	if l.c == nil {
		return
	}
	for _, anc := range l.db.Ancestors() {
		if a, ok := l.c.Peek(l.key(anc.Tag())); ok {
			if from, ok := a.(T); ok && derive(from, anc) {
				return
			}
		}
	}
}

// versioned is a key qualified by a snapshot version tag; version 0 (tag "")
// keeps the historical, unqualified key.
func versioned(tag, key string) string {
	if tag == "" {
		return key
	}
	return tag + "\x00" + key
}

// estKey builds the identity of an estimator set: everything that affects
// training except the update constants.
func estKey(useKey, whenKey, forKey string, featCols []string, o Options) string {
	var b strings.Builder
	b.WriteString(useKey)
	b.WriteByte('\x00')
	b.WriteString(whenKey)
	b.WriteByte('\x00')
	b.WriteString(forKey)
	b.WriteByte('\x00')
	for _, f := range featCols {
		b.WriteString(f)
		b.WriteByte(',')
	}
	b.WriteByte('\x00')
	b.WriteString(string(rune('0' + int(o.Mode))))
	b.WriteString("|")
	b.WriteString(string(rune('a' + o.Estimator)))
	if o.SampleSize > 0 {
		b.WriteString("|s")
		for n := o.SampleSize; n > 0; n /= 10 {
			b.WriteByte(byte('0' + n%10))
		}
	}
	// The seed drives training-sample selection and forest randomness, so
	// estimators trained under different seeds are distinct artifacts (a
	// long-lived session cache must not serve a stale-seed estimator after
	// SetOptions changes the seed).
	b.WriteString("|r")
	b.WriteString(strconv.FormatInt(o.Seed, 10))
	// The shard granularity fixes the reduction tree of per-shard estimator
	// fits, so indexes fitted under different granularities are distinct
	// artifacts (withDefaults normalizes 0 to the default granularity, so
	// equal plans share one key). The worker fan-out (Shards) deliberately
	// does not participate: it cannot change a fitted model.
	b.WriteString("|g")
	b.WriteString(strconv.Itoa(o.ShardRows))
	return b.String()
}

// preparedKey is the identity of q's Prepared under o (withDefaults applied):
// the versioned USE, the WHEN, FOR and OUTPUT text with their literals, the
// update attributes without their constants, the semantic options estKey
// encodes and DisableBlocks. The execution knobs (Shards, Progress) and the
// caches are not part of it.
func preparedKey(db *relation.Database, q *hyperql.WhatIf, o Options) string {
	whenKey, forKey := shapeKeys(q)
	attrs := make([]string, len(q.Updates))
	for i, u := range q.Updates {
		attrs[i] = u.Attr
	}
	key := kindPrepared + estKey(versioned(db.VersionTag(), q.Use.String()), whenKey, forKey, attrs, o)
	if o.DisableBlocks {
		key += "|b"
	}
	return key
}
