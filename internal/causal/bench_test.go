package causal_test

import (
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/relation"
)

// BenchmarkDecompose times each path of the block decomposition builder:
//   - link-free: the fresh decomposition a cold what-if over German-Syn
//     builds (20,000 rows, no foreign key and no cross edge, so every tuple is
//     a block of its own and no union-find is made);
//   - fk: the fresh decomposition of the Amazon-Syn join behind a
//     Figure-1 what-if (4,000 products, about 12 reviews each, the review →
//     product foreign key and the by-category cross edge);
//   - extend: German-Syn 20,200 extended by one 200-row append, derived from
//     the decomposition of the 20,200 rows, which was itself derived from
//     the fresh one of the first 20,000 — a second append's derivation,
//     writing its ids in place;
//   - fk-extend: the Amazon-Syn join extended by 200 reviews of existing
//     products, derived likewise from the join after 200 others: only the
//     child keys the new reviews hold are probed in the product column.
func BenchmarkDecompose(b *testing.B) {
	fresh := func(db *relation.Database, m *causal.Model, n int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blocks, err := causal.Decompose(db, m)
				if err != nil {
					b.Fatal(err)
				}
				if blocks.N != n {
					b.Fatalf("%d blocks, want %d", blocks.N, n)
				}
			}
		}
	}
	g := dataset.GermanSyn(20000, 7)
	b.Run("link-free", fresh(g.DB, g.Model, 20000))
	am := dataset.AmazonSyn(4000, 12, 7)
	want, err := causal.Decompose(am.DB, am.Model)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fk", fresh(am.DB, am.Model, want.N))

	// derived times the derivation of next's decomposition from its parent
	// version's. That one is derived from db's fresh decomposition off the
	// clock, afresh each iteration: a fresh build reserves no room, a
	// derivation does, and the first derivation from it fills the room in
	// place (a later one would copy).
	derived := func(db *relation.Database, m *causal.Model, first, second map[string][]relation.Tuple, n int) func(*testing.B) {
		return func(b *testing.B) {
			db.SetVersion(1)
			mid, err := db.Extend(first)
			if err != nil {
				b.Fatal(err)
			}
			next, err := mid.Extend(second)
			if err != nil {
				b.Fatal(err)
			}
			base, err := causal.Decompose(db, m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				from, ok, err := base.Extend(mid, m, mid.Ancestors()[0])
				if err != nil || !ok {
					b.Fatalf("parent Extend refused (%v)", err)
				}
				b.StartTimer()
				blocks, ok, err := from.Extend(next, m, next.Ancestors()[0])
				if err != nil || !ok {
					b.Fatalf("Extend refused (%v)", err)
				}
				if blocks.N != n {
					b.Fatalf("%d blocks, want %d", blocks.N, n)
				}
			}
		}
	}
	full := dataset.GermanSyn(20400, 7).Rel()
	appends := func(lo, hi int) map[string][]relation.Tuple {
		var batch []relation.Tuple
		for i := lo; i < hi; i++ {
			batch = append(batch, full.Row(i))
		}
		return map[string][]relation.Tuple{"German": batch}
	}
	b.Run("extend", derived(g.DB, g.Model, appends(20000, 20200), appends(20200, 20400), 20400))

	reviews := am.DB.Relation("Review")
	// 200 copies of reviews from row at on, each with a new ReviewID from id
	// on: reviews of existing products.
	newReviews := func(at, id int) map[string][]relation.Tuple {
		var batch []relation.Tuple
		for i := range 200 {
			r := reviews.Row(at + i*reviews.Len()/200)
			r[1] = relation.Int(int64(id + i))
			batch = append(batch, r)
		}
		return map[string][]relation.Tuple{"Review": batch}
	}
	b.Run("fk-extend", derived(am.DB, am.Model, newReviews(0, 1_000_000), newReviews(1, 2_000_000), want.N))
}
