package causal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyper/internal/relation"
)

// randomChain builds Product/Review, with a foreign key from Review.PID to
// Product.PID when fk is set, then extends it by batches of random products
// and reviews. Reviews may reference products that arrive later, categories
// repeat or are new, and a product's key may be one a review already named,
// so every refusal rule of Extend gets exercised.
func randomChain(t *testing.T, rng *rand.Rand, steps int, fk bool) []*relation.Database {
	t.Helper()
	prod := relation.NewRelation("Product", relation.MustSchema(
		relation.Column{Name: "PID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Category", Kind: relation.KindString},
	))
	rev := relation.NewRelation("Review", relation.MustSchema(
		relation.Column{Name: "RID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "PID", Kind: relation.KindInt},
	))
	db := relation.NewDatabase()
	db.MustAdd(prod)
	db.MustAdd(rev)
	if fk {
		if err := db.AddForeignKey(relation.ForeignKey{Child: "Review", ChildCol: "PID", Parent: "Product", ParentCol: "PID"}); err != nil {
			t.Fatal(err)
		}
	}
	pid, rid, cats := 0, 0, 3
	add := func() map[string][]relation.Tuple {
		out := map[string][]relation.Tuple{}
		for range rng.Intn(4) {
			if rng.Intn(4) == 0 {
				cats++
			}
			pid++
			out["Product"] = append(out["Product"], relation.Tuple{relation.Int(int64(pid)), relation.String(fmt.Sprint("c", rng.Intn(cats)))})
		}
		for range rng.Intn(6) {
			rid++
			out["Review"] = append(out["Review"], relation.Tuple{relation.Int(int64(rid)), relation.Int(int64(rng.Intn(pid + 3)))})
		}
		return out
	}
	for name, ts := range add() {
		for _, tu := range ts {
			db.Relation(name).MustInsert(tu...)
		}
	}
	db.SetVersion(1)
	chain := []*relation.Database{db}
	for range steps {
		next, err := chain[len(chain)-1].Extend(add())
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next)
	}
	return chain
}

// TestBlocksExtendMatchesDecompose is the oracle of Extend: over random
// chains — with the foreign key, with it and the cross edge grouping
// products by category, and link-free (neither, so Decompose makes no
// union-find and every tuple is a block, the derivation a single-relation
// view takes) — every decomposition Extend accepts, from the parent and from
// older ancestors, equals Decompose of the version: block ids, count and the
// tables the next Extend reads.
func TestBlocksExtendMatchesDecompose(t *testing.T) {
	cross := NewModel()
	cross.AddCross(CrossEdge{FromRel: "Product", FromAttr: "Category", ToRel: "Product", ToAttr: "Category", GroupBy: "Product.Category"})
	for _, tc := range []struct {
		name string
		fk   bool
		m    *Model
	}{{"fk", true, nil}, {"fk+cross", true, cross}, {"link-free", false, nil}} {
		derived, refused := 0, 0
		for seed := range int64(30) {
			rng := rand.New(rand.NewSource(seed))
			chain := randomChain(t, rng, 10, tc.fk)
			fresh := make([]*Blocks, len(chain))
			for v, db := range chain {
				b, err := Decompose(db, tc.m)
				if err != nil {
					t.Fatal(err)
				}
				fresh[v] = b
			}
			for v := 1; v < len(chain); v++ {
				for back, anc := range chain[v].Ancestors() {
					from := fresh[v-1-back]
					got, ok := from.Extend(chain[v], tc.m, anc)
					if !ok {
						refused++
						continue
					}
					derived++
					want := fresh[v]
					if got.N != want.N || !slices.Equal(got.firstIn, want.firstIn) ||
						!slices.Equal(got.childCodes, want.childCodes) ||
						!slices.EqualFunc(got.parentBlock, want.parentBlock, slices.Equal) ||
						!slices.EqualFunc(got.groupBlock, want.groupBlock, slices.Equal) {
						t.Fatalf("%s seed %d v%d from v%d: derived state differs:\n got %+v\nwant %+v", tc.name, seed, v, anc.Version, got, want)
					}
					for name, ids := range want.ByRel {
						if !slices.Equal(got.ByRel[name], ids) {
							t.Fatalf("%s seed %d v%d from v%d: %s block ids %v, want %v", tc.name, seed, v, anc.Version, name, got.ByRel[name], ids)
						}
					}
				}
			}
		}
		t.Logf("%s: derived %d, refused %d", tc.name, derived, refused)
		if derived == 0 || refused == 0 {
			t.Fatalf("%s: derived %d, refused %d: the chains must exercise both", tc.name, derived, refused)
		}
	}
}
