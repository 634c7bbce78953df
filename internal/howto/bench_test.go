package howto

// BenchmarkHowTo measures a full multi-attribute how-to evaluation —
// candidate enumeration, one candidate what-if per permissible update, and
// the IP solve. Candidate scoring dominates, so this is the benchmark that
// shows the scoring pool's scaling with GOMAXPROCS.

import (
	"context"
	"fmt"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
)

func BenchmarkHowTo(b *testing.B) {
	// The German template of the howto_ip workload, at 2,000 rows and at
	// 25,000 (every row its own block, so candidates fold by class).
	q, err := hyperql.ParseHowTo(`
		USE German
		HOWTOUPDATE Status, Savings, Housing, CreditAmount
		TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{2000, 25000} {
		g := dataset.GermanSyn(rows, 7)
		b.Run(fmt.Sprintf("german-%dk", rows/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Evaluate(context.Background(), g.DB, g.Model, q, Options{Engine: engine.Options{Seed: 7}})
				if err != nil {
					b.Fatal(err)
				}
				if res.Objective < res.Base {
					b.Fatal("objective below base")
				}
			}
		})
	}
}
