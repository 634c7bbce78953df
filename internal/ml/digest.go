package ml

import (
	"fmt"
	"math"

	"hyper/internal/relation"
	"hyper/internal/shard"
)

// Incremental column statistics for append-only (MVCC) relations. The
// planner's per-column summaries (ColumnStats) are shard-mergeable in the
// same sense as the frequency estimator: counts add, distinct sets union,
// min/max/max-abs fold with order-independent maxima, and the flags OR/AND.
// A RelationDigest therefore partitions the relation with a prefix-stable
// strided plan (shard.Strided), fits one ColumnDigest per shard, and merges
// the per-shard digests in plan order. When rows are appended, only the
// final partial shard is extended and new tail shards are fitted — sealed
// shards are never re-scanned, which is what makes a session append O(new
// rows) instead of O(total rows).

// ColumnDigest is the mergeable accumulator behind one column's
// ColumnStats.
type ColumnDigest struct {
	name     string
	rows     int
	nulls    int
	distinct map[string]struct{}
	numeric  bool
	hasNaN   bool
	maxAbs   float64
	min, max float64
}

func newColumnDigest(name string) *ColumnDigest {
	return &ColumnDigest{
		name:     name,
		distinct: make(map[string]struct{}),
		numeric:  true,
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

// observe accumulates one value, mirroring CollectStats's per-value step
// exactly (NaN sets the flag and skips the range fold; non-numeric kinds
// clear Numeric but still count toward the distinct set).
func (c *ColumnDigest) observe(v relation.Value) {
	c.rows++
	if v.IsNull() {
		c.nulls++
		return
	}
	c.distinct[v.Key()] = struct{}{}
	switch v.Kind() {
	case relation.KindInt, relation.KindFloat:
		f := v.AsFloat()
		if math.IsNaN(f) {
			c.hasNaN = true
			return
		}
		if a := math.Abs(f); a > c.maxAbs {
			c.maxAbs = a
		}
		if f < c.min {
			c.min = f
		}
		if f > c.max {
			c.max = f
		}
	default:
		c.numeric = false
	}
}

// merge folds other into c. All folded quantities are order-independent
// (sums, unions, maxima), so merging per-shard digests in plan order equals
// the whole-relation scan bit for bit.
func (c *ColumnDigest) merge(other *ColumnDigest) {
	c.rows += other.rows
	c.nulls += other.nulls
	for k := range other.distinct {
		c.distinct[k] = struct{}{}
	}
	c.numeric = c.numeric && other.numeric
	c.hasNaN = c.hasNaN || other.hasNaN
	if other.maxAbs > c.maxAbs {
		c.maxAbs = other.maxAbs
	}
	if other.min < c.min {
		c.min = other.min
	}
	if other.max > c.max {
		c.max = other.max
	}
}

// stats renders the digest as the planner's wire form, with the same
// end-of-scan normalizations CollectStats applies.
func (c *ColumnDigest) stats() ColumnStats {
	st := ColumnStats{
		Name: c.name, Rows: c.rows, Card: len(c.distinct),
		Numeric: c.numeric, HasNaN: c.hasNaN, MaxAbs: c.maxAbs,
		Min: c.min, Max: c.max,
	}
	if c.rows > 0 {
		st.NullFrac = float64(c.nulls) / float64(c.rows)
	}
	if st.Min > st.Max { // no numeric values seen
		st.Min, st.Max = 0, 0
	}
	return st
}

// shardDigest is the digest of one strided shard: one ColumnDigest per
// schema column, plus the row range it has absorbed so far.
type shardDigest struct {
	lo, hi int // rows [lo, hi) absorbed
	cols   []*ColumnDigest
}

// RelationDigest maintains per-shard column digests for one append-only
// relation. It is not safe for concurrent use; the serving layer serializes
// appends per session.
type RelationDigest struct {
	target int
	fitted int // rows absorbed so far (a frozen prefix of the relation)
	shards []*shardDigest
}

// NewRelationDigest returns an empty digest at the given rows-per-shard
// granularity (<= 0 uses shard.DefaultTargetRows).
func NewRelationDigest(target int) *RelationDigest {
	if target <= 0 {
		target = shard.DefaultTargetRows
	}
	return &RelationDigest{target: target}
}

// FittedRows returns how many leading rows the digest has absorbed.
func (d *RelationDigest) FittedRows() int { return d.fitted }

// Advance absorbs rel's rows beyond the already-fitted prefix into the
// strided shard plan and reports the work split: fitted counts the shards
// that scanned new rows this call (fresh tail shards plus the grown partial
// shard), reused counts the sealed shards that were left untouched. rel must
// be an extension of the relation previously advanced over — rows already
// absorbed are never re-read, so a mutated prefix would silently corrupt the
// digest (append-only growth is the caller's contract).
func (d *RelationDigest) Advance(rel *relation.Relation) (fitted, reused int) {
	n := rel.Len()
	if n < d.fitted {
		panic(fmt.Sprintf("ml: relation %s shrank from %d to %d rows under an append-only digest", rel.Name(), d.fitted, n))
	}
	plan := shard.Strided(n, d.target)
	cols := rel.Schema().Columns()
	for s := 0; s < plan.Shards(); s++ {
		lo, hi := plan.Bounds(s)
		if hi <= d.fitted {
			reused++ // sealed (or previously absorbed) shard: never re-scan
			continue
		}
		var sd *shardDigest
		if s < len(d.shards) {
			sd = d.shards[s] // the partial tail shard, growing in place
		} else {
			sd = &shardDigest{lo: lo, hi: lo, cols: make([]*ColumnDigest, len(cols))}
			for c := range cols {
				sd.cols[c] = newColumnDigest(cols[c].Name)
			}
			d.shards = append(d.shards, sd)
		}
		from := sd.hi // rows [lo, sd.hi) were absorbed in a prior call
		for i := from; i < hi; i++ {
			for c := range sd.cols {
				sd.cols[c].observe(rel.Value(i, c))
			}
		}
		sd.hi = hi
		fitted++
	}
	d.fitted = n
	return fitted, reused
}

// Stats merges the per-shard digests in plan order and renders the planner
// wire form. The result is identical to CollectStats over the same rows.
func (d *RelationDigest) Stats() []ColumnStats {
	if len(d.shards) == 0 {
		return []ColumnStats{}
	}
	merged := make([]*ColumnDigest, len(d.shards[0].cols))
	for c := range merged {
		merged[c] = newColumnDigest(d.shards[0].cols[c].name)
	}
	for _, sd := range d.shards {
		for c := range merged {
			merged[c].merge(sd.cols[c])
		}
	}
	out := make([]ColumnStats, len(merged))
	for c := range merged {
		out[c] = merged[c].stats()
	}
	return out
}
