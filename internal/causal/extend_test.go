package causal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyper/internal/relation"
)

// randomChain builds Product/Review, in either order, with a foreign key
// from Review.PID to Product.PID when fk is set, then extends it by batches
// of random products and reviews. Reviews may reference products that
// arrive later, categories repeat or are new, and a product's key may be one
// a review already named, so every refusal rule of Extend gets exercised.
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
	if rng.Intn(2) == 0 {
		db.MustAdd(prod)
		db.MustAdd(rev)
	} else { // children first: a review can join a block a product opened
		db.MustAdd(rev)
		db.MustAdd(prod)
	}
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

// sameBlocks describes how got differs from want — block ids, count and
// the tables the next Extend reads — or returns "".
func sameBlocks(got, want *Blocks) string {
	if got.N != want.N || !slices.Equal(got.firstIn, want.firstIn) ||
		!slices.Equal(got.childCodes, want.childCodes) ||
		!slices.EqualFunc(got.parentBlock, want.parentBlock, slices.Equal) ||
		!slices.EqualFunc(got.groupBlock, want.groupBlock, slices.Equal) ||
		len(got.claimed) != len(want.claimed) || len(got.ByRel) != len(want.ByRel) {
		return fmt.Sprintf("state differs:\n got %+v\nwant %+v", got, want)
	}
	for name, ids := range want.ByRel {
		if !slices.Equal(got.ByRel[name], ids) {
			return fmt.Sprintf("%s block ids %v, want %v", name, got.ByRel[name], ids)
		}
	}
	return ""
}

// crossModel groups products by category through a cross edge.
func crossModel() *Model {
	m := NewModel()
	m.AddCross(CrossEdge{FromRel: "Product", FromAttr: "Category", ToRel: "Product", ToAttr: "Category", GroupBy: "Product.Category"})
	return m
}

// chainCases are randomChain's link shapes: the foreign key, it and the
// cross edge, and link-free (neither, so no union-find is made and every
// tuple is a block, the derivation a single-relation view takes).
var chainCases = []struct {
	name string
	fk   bool
	m    *Model
}{{"fk", true, nil}, {"fk+cross", true, crossModel()}, {"link-free", false, nil}}

// TestBlocksExtendMatchesDecompose holds Decompose and Extend, one builder,
// to the fresh decomposition it replaced (refDecompose): over random chains
// of every chainCases shape, every version's Decompose and every
// decomposition Extend accepts, from the parent and from older ancestors,
// equals refDecompose of the version — block ids, count and the tables the
// next Extend reads.
func TestBlocksExtendMatchesDecompose(t *testing.T) {
	for _, tc := range chainCases {
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
				want, err := refDecompose(db, tc.m)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameBlocks(b, want); diff != "" {
					t.Fatalf("%s seed %d v%d: fresh %s", tc.name, seed, db.Version(), diff)
				}
				fresh[v] = b
			}
			for v := 1; v < len(chain); v++ {
				want, _ := refDecompose(chain[v], tc.m)
				for back, anc := range chain[v].Ancestors() {
					got, ok, err := fresh[v-1-back].Extend(chain[v], tc.m, anc)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						refused++
						continue
					}
					derived++
					if diff := sameBlocks(got, want); diff != "" {
						t.Fatalf("%s seed %d v%d from v%d: derived %s", tc.name, seed, chain[v].Version(), anc.Version, diff)
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

// FuzzBlocksParity decomposes each version of a random chain (of the shape
// chainCases[mode%3]) the way the engine does: Extend from the decomposition
// of a random ancestor — itself fresh or derived — and Decompose when Extend
// refuses. Every fresh and every accepted derived decomposition must equal
// refDecompose of its version, and after the chain every version's, which
// later Extends may have grown in place, must still.
func FuzzBlocksParity(f *testing.F) {
	for mode := range uint8(3) {
		f.Add(int64(mode), uint8(8), mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, steps, mode uint8) {
		tc := chainCases[mode%3]
		rng := rand.New(rand.NewSource(seed))
		chain := randomChain(t, rng, int(steps%16), tc.fk)
		blocks := make([]*Blocks, len(chain))
		wants := make([]*Blocks, len(chain))
		for v, db := range chain {
			want, err := refDecompose(db, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			wants[v] = want
			b, ok := (*Blocks)(nil), false
			if ancs := db.Ancestors(); len(ancs) > 0 {
				back := rng.Intn(len(ancs))
				if b, ok, err = blocks[v-1-back].Extend(db, tc.m, ancs[back]); err != nil {
					t.Fatal(err)
				}
				if ok {
					if diff := sameBlocks(b, want); diff != "" {
						t.Fatalf("%s v%d from v%d: derived %s", tc.name, db.Version(), ancs[back].Version, diff)
					}
				}
			}
			if !ok {
				if b, err = Decompose(db, tc.m); err != nil {
					t.Fatal(err)
				}
				if diff := sameBlocks(b, want); diff != "" {
					t.Fatalf("%s v%d: fresh %s", tc.name, db.Version(), diff)
				}
			}
			blocks[v] = b
		}
		for v, b := range blocks {
			if diff := sameBlocks(b, wants[v]); diff != "" {
				t.Fatalf("%s v%d after the chain: %s", tc.name, chain[v].Version(), diff)
			}
		}
	})
}

// TestBlocksExtendRefusalReleasesClaim holds Extend to giving back the room
// past the ancestor's ids when it refuses: a derivation refused while
// numbering (a new A row would open a block below B's) must leave the next
// accepted derivation from the same ancestor free to write in place, sharing
// the ancestor's backing array, and that one must equal refDecompose.
func TestBlocksExtendRefusalReleasesClaim(t *testing.T) {
	db := relation.NewDatabase()
	for _, name := range []string{"A", "B"} {
		r := relation.NewRelation(name, relation.MustSchema(relation.Column{Name: "ID", Kind: relation.KindInt, Key: true}))
		r.MustInsert(relation.Int(1))
		db.MustAdd(r)
	}
	db.SetVersion(1)
	anc, err := Decompose(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	grow := func(name string) *relation.Database {
		next, err := db.Extend(map[string][]relation.Tuple{name: {{relation.Int(2)}}})
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	refusedDB, acceptedDB := grow("A"), grow("B")
	if _, ok, err := anc.Extend(refusedDB, nil, refusedDB.Ancestors()[0]); err != nil || ok {
		t.Fatalf("appending to A: ok %v, err %v; want a refusal", ok, err)
	}
	got, ok, err := anc.Extend(acceptedDB, nil, acceptedDB.Ancestors()[0])
	if err != nil || !ok {
		t.Fatalf("appending to B: ok %v, err %v; want it derived", ok, err)
	}
	if &got.ByRel["A"][0] != &anc.ByRel["A"][0] {
		t.Fatal("the accepted derivation copied A's ids: the refused one kept its claim")
	}
	want, err := refDecompose(acceptedDB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameBlocks(got, want); diff != "" {
		t.Fatal(diff)
	}
}
