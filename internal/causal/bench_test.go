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
//   - extend: German-Syn 20,000 extended by one 200-row append, derived from
//     the fresh decomposition of the 20,000 rows;
//   - fk-extend: the Amazon-Syn join extended by 200 reviews of existing
//     products, derived from its fresh decomposition: only the child keys
//     the new reviews hold are probed in the product column.
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

	derived := func(db *relation.Database, m *causal.Model, batch map[string][]relation.Tuple, n int) func(*testing.B) {
		return func(b *testing.B) {
			db.SetVersion(1)
			next, err := db.Extend(batch)
			if err != nil {
				b.Fatal(err)
			}
			from, err := causal.Decompose(db, m)
			if err != nil {
				b.Fatal(err)
			}
			anc := next.Ancestors()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocks, ok, err := from.Extend(next, m, anc)
				if err != nil || !ok {
					b.Fatalf("Extend refused (%v)", err)
				}
				if blocks.N != n {
					b.Fatalf("%d blocks, want %d", blocks.N, n)
				}
			}
		}
	}
	full := dataset.GermanSyn(20200, 7).Rel()
	batch := make([]relation.Tuple, 0, 200)
	for i := 20000; i < full.Len(); i++ {
		batch = append(batch, full.Row(i))
	}
	b.Run("extend", derived(g.DB, g.Model, map[string][]relation.Tuple{"German": batch}, 20200))

	reviews := am.DB.Relation("Review")
	batch = batch[:0]
	for i := range 200 {
		r := reviews.Row(i * reviews.Len() / 200)
		r[1] = relation.Int(int64(1_000_000 + i)) // a new ReviewID of the same product
		batch = append(batch, r)
	}
	b.Run("fk-extend", derived(am.DB, am.Model, map[string][]relation.Tuple{"Review": batch}, want.N))
}
