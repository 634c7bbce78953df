package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// versionChain is a database grown by appends, and the same versions built
// from scratch. Relation k of version v holds the rows order[k][:cut[v][k]]
// of src's relation k, in that order.
type versionChain struct {
	src   *relation.Database
	order [][]int
	cut   [][]int
}

// build returns src's rows order[k][:cut[k]] as a fresh database at version.
func (c versionChain) build(t *testing.T, cut []int, version int64) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	for k, name := range c.src.Names() {
		srcRel := c.src.Relation(name)
		r := relation.NewRelation(name, srcRel.Schema())
		for _, i := range c.order[k][:cut[k]] {
			if err := r.Insert(srcRel.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		db.MustAdd(r)
	}
	for _, fk := range c.src.ForeignKeys() {
		if err := db.AddForeignKey(fk); err != nil {
			t.Fatal(err)
		}
	}
	db.SetVersion(version)
	return db
}

// grow returns the chain's versions: the first built, each next one its
// predecessor's Extend by the rows between their cuts.
func (c versionChain) grow(t *testing.T) []*relation.Database {
	t.Helper()
	out := []*relation.Database{c.build(t, c.cut[0], 1)}
	for v := 1; v < len(c.cut); v++ {
		appends := map[string][]relation.Tuple{}
		for k, name := range c.src.Names() {
			srcRel := c.src.Relation(name)
			for _, i := range c.order[k][c.cut[v-1][k]:c.cut[v][k]] {
				appends[name] = append(appends[name], srcRel.Row(i))
			}
		}
		next, err := out[v-1].Extend(appends)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, next)
	}
	return out
}

// singleChain grows a single-table dataset from n0 rows by steps appends of
// 1..maxBatch rows.
func singleChain(ds *dataset.Single, rng *rand.Rand, n0, steps, maxBatch int) versionChain {
	n := ds.Rel().Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	cut := [][]int{{n0}}
	for range steps {
		cut = append(cut, []int{min(n, cut[len(cut)-1][0]+1+rng.Intn(maxBatch))})
	}
	return versionChain{src: ds.DB, order: [][]int{order}, cut: cut}
}

// amazonChain grows Amazon by batches of products; a review arrives with its
// product or up to two batches later, so appends join reviews to earlier
// products' blocks as well as to new ones.
func amazonChain(a *dataset.Amazon, rng *rand.Rand, steps int) versionChain {
	prod, rev := a.DB.Relation("Product"), a.DB.Relation("Review")
	pBatch := make([]int, prod.Len())
	for i := range pBatch {
		pBatch[i] = min(steps, i*(steps+2)/prod.Len()) // batch 0 holds about two batches' worth
	}
	pidCol, revPID := prod.Schema().MustIndex("PID"), rev.Schema().MustIndex("PID")
	batchOf := map[int64]int{}
	for i, b := range pBatch {
		batchOf[prod.Value(i, pidCol).AsInt()] = b
	}
	rBatch := make([]int, rev.Len())
	for i := range rBatch {
		rBatch[i] = min(steps, batchOf[rev.Value(i, revPID).AsInt()]+rng.Intn(3))
	}
	c := versionChain{src: a.DB}
	for _, batches := range [][]int{pBatch, rBatch} {
		var order []int
		counts := make([]int, steps+1)
		for b := 0; b <= steps; b++ {
			for i, ib := range batches {
				if ib == b {
					order = append(order, i)
				}
			}
			counts[b] = len(order)
		}
		c.order = append(c.order, order)
		for b := range counts {
			if len(c.cut) <= b {
				c.cut = append(c.cut, nil)
			}
			c.cut[b] = append(c.cut[b], counts[b])
		}
	}
	return c
}

// derivedSpans counts the spans of a trace that record a derivation, by name.
func derivedSpans(sj *obs.SpanJSON, into map[string]int) {
	if sj == nil {
		return
	}
	if _, ok := sj.Attrs["derived_from"]; ok {
		into[sj.Name]++
	}
	for _, c := range sj.Children {
		derivedSpans(c, into)
	}
}

// TestHeadDerivationMatchesFreshSession is the oracle of version
// derivation: along a chain of appends of random sizes, with the query
// templates interleaved as append_mix interleaves them, every head answer —
// whose blocks, encodings, estimator index and fits derive from whatever
// earlier version the shared cache holds — is bit-equal to the answer of a
// fresh cache over the same rows built from scratch, at one and four
// workers, with concurrent head queries sharing each build. German derives
// every artifact; Amazon's foreign-key and
// cross-tuple blocks derive, its joined view's sets never; German-Syn with a
// continuous amount fits forests, which never derive.
func TestHeadDerivationMatchesFreshSession(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	german := dataset.GermanSyn(4000, 3)
	amazon := dataset.AmazonSyn(240, 3, 5)
	continuous := dataset.GermanSynContinuous(1100, 4)
	// A query's sets derive (train and fit spans record it) when its view is
	// a table and its features discrete; every case derives its blocks.
	type query struct {
		src    string
		derive bool
	}
	cases := []struct {
		name     string
		chain    versionChain
		model    *causal.Model
		queries  []query
		parallel int // concurrent head queries per version
	}{
		{
			name: "german", chain: singleChain(german, rng, 1500, 12, 200), model: german.Model, parallel: 3,
			queries: []query{
				{"USE German UPDATE(Status) = 2 OUTPUT COUNT(Credit = 1)", true},
				{"USE German WHEN Sex = 1 AND Age <= 2 UPDATE(Savings) = 3 OUTPUT AVG(POST(Credit))", true},
				{"USE German WHEN Age >= 1 AND Status + Savings >= 3 UPDATE(Housing) = 1 OUTPUT COUNT(Credit = 1)", true},
				{"USE German UPDATE(CreditAmount) = 2 OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 1", true},
			},
		},
		{
			name: "amazon", chain: amazonChain(amazon, rng, 12), model: amazon.Model, parallel: 3,
			queries: []query{
				{"USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality, AVG(T2.Rating) AS Rtng FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality) WHEN Category = 'Laptop' UPDATE(Price) = 0.9 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'", false},
				{"USE Product WHEN Brand = 'Apple' UPDATE(Color) = 'Red' OUTPUT COUNT(Category = 'Laptop')", true},
			},
		},
		{
			name: "german-continuous", chain: singleChain(continuous, rng, 500, 12, 50), model: continuous.Model, parallel: 1,
			queries: []query{{"USE German UPDATE(CreditAmount) = 3000 OUTPUT COUNT(Credit = 1)", false}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			versions := tc.chain.grow(t)
			derived := make([]map[string]int, len(tc.queries))
			for i := range derived {
				derived[i] = map[string]int{}
			}
			for _, shards := range []int{1, 4} {
				shared := Options{Cache: NewCache(), Seed: 3, Shards: shards, ShardRows: 256}
				for v, db := range versions {
					qi := v % len(tc.queries)
					src := tc.queries[qi].src
					q, err := hyperql.ParseWhatIf(src)
					if err != nil {
						t.Fatal(err)
					}
					// Concurrent head queries share one build of each artifact,
					// which derives while the others wait for it.
					heads := make([]*Result, tc.parallel)
					traces := make([]*obs.Trace, tc.parallel)
					errs := make([]error, tc.parallel)
					var wg sync.WaitGroup
					for g := range heads {
						wg.Add(1)
						go func() {
							defer wg.Done()
							traces[g] = obs.NewTrace("whatif")
							heads[g], errs[g] = EvaluateContext(traces[g].Context(context.Background()), db, tc.model, q, shared)
							traces[g].Finish()
						}()
					}
					wg.Wait()

					fresh := shared
					fresh.Cache = NewCache()
					want, err := EvaluateContext(context.Background(), tc.chain.build(t, tc.chain.cut[v], int64(v+1)), tc.model, q, fresh)
					if err != nil {
						t.Fatal(err)
					}
					for g, head := range heads {
						if errs[g] != nil {
							t.Fatalf("v%d %s: %v", v+1, src, errs[g])
						}
						derivedSpans(traces[g].Root().JSON(), derived[qi])
						if got, exp := answerBits(head), answerBits(want); got != exp {
							t.Fatalf("shards=%d v%d %s:\nhead  %s\nfresh %s", shards, v+1, src, got, exp)
						}
					}
				}
			}
			blocks := 0
			for qi, q := range tc.queries {
				blocks += derived[qi]["blocks"]
				for _, name := range []string{"train", "fit"} {
					if got := derived[qi][name]; (got > 0) != q.derive {
						t.Errorf("%s: %d %s spans derived along the chain, want derivation %v", q.src, got, name, q.derive)
					}
				}
			}
			if blocks == 0 {
				t.Errorf("no blocks span derived along the chain")
			}
		})
	}
}

// answerBits renders an answer's value, sum and count to the bit.
func answerBits(r *Result) string {
	return fmt.Sprintf("value=%x sum=%x count=%x views=%d blocks=%d (%v)",
		math.Float64bits(r.Value), math.Float64bits(r.Sum), math.Float64bits(r.Count), r.ViewRows, r.Blocks, r.Value)
}
