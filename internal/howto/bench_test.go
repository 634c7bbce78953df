package howto

// BenchmarkHowTo measures a full multi-attribute how-to evaluation —
// candidate enumeration, one candidate what-if per permissible update, and
// the IP solve. Candidate scoring dominates, so this is the benchmark that
// shows the scoring pool's scaling with GOMAXPROCS.

import (
	"context"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
)

func BenchmarkHowTo(b *testing.B) {
	g := dataset.GermanSyn(2000, 7)
	q, err := hyperql.ParseHowTo(`
		USE German
		HOWTOUPDATE Status, Savings, Housing, CreditAmount
		TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Evaluate(context.Background(), g.DB, g.Model, q, Options{Engine: engine.Options{Seed: 7}})
		if err != nil {
			b.Fatal(err)
		}
		if res.Objective < res.Base {
			b.Fatal("objective below base")
		}
	}
}
