package howto

// Shard parity for the how-to path: Options.Engine.Shards drives both the
// candidate-scoring pool width and each candidate's engine fan-out, and none
// of it may change which updates are chosen or the estimated objective. The
// pinned goldens must hold at every fan-out, and a multi-shard-regime solve
// (5000 rows → 2-shard plans inside every candidate what-if) must reproduce
// the serial result bit for bit.

import (
	"context"
	"strconv"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
)

func TestHowToShardCountParityOnGoldens(t *testing.T) {
	for _, c := range howtoParityCases {
		for _, shards := range []int{1, 3, 7} {
			t.Run(c.name+"/shards="+strconv.Itoa(shards), func(t *testing.T) {
				res := howtoParityEvalShards(t, c, shards)
				if got := res.String(); got != c.golden {
					t.Errorf("result = %s\n  golden %s", got, c.golden)
				}
			})
		}
	}
}

// howtoParityEvalShards is howtoParityEval with a worker fan-out override.
func howtoParityEvalShards(t testing.TB, c howtoParityCase, shards int) *Result {
	t.Helper()
	return howtoParityEvalOpts(t, c, Options{Engine: engine.Options{Seed: 7, Shards: shards}})
}

func TestHowToShardCountParityMultiShard(t *testing.T) {
	g := dataset.GermanSyn(5000, 7)
	q, err := hyperql.ParseHowTo(`
		USE German
		HOWTOUPDATE Status, Savings, Housing, CreditAmount
		TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	var base *Result
	for _, shards := range []int{1, 2, 3, 4, 7} {
		res, err := Evaluate(context.Background(), g.DB, g.Model, q, Options{Engine: engine.Options{Seed: 7, Shards: shards}})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.String() != base.String() {
			t.Errorf("shards=%d: %s\n  want  %s", shards, res, base)
		}
		if res.WhatIfEvals != base.WhatIfEvals {
			t.Errorf("shards=%d: WhatIfEvals = %d, want %d", shards, res.WhatIfEvals, base.WhatIfEvals)
		}
		if f17h(res.Objective) != f17h(base.Objective) || f17h(res.Base) != f17h(base.Base) {
			t.Errorf("shards=%d: objective %s base %s, want %s %s",
				shards, f17h(res.Objective), f17h(res.Base), f17h(base.Objective), f17h(base.Base))
		}
	}
}

func f17h(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }
