package causal_test

import (
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
)

// BenchmarkDecompose times the block decomposition a cold what-if over
// German-Syn builds: one relation, no foreign key and no cross edge, so
// every tuple is a block of its own.
func BenchmarkDecompose(b *testing.B) {
	g := dataset.GermanSyn(20000, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blocks, err := causal.Decompose(g.DB, g.Model)
		if err != nil {
			b.Fatal(err)
		}
		if blocks.N != 20000 {
			b.Fatalf("%d blocks, want 20000", blocks.N)
		}
	}
}
