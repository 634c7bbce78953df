package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/ml"
	"hyper/internal/relation"
	"hyper/internal/stats"
)

// TestSharedColumns: the estimator sets over one cached view read one encoded
// column per view column — the same memory, not equal copies —, a ψ summary
// column belongs to its set alone, and no fit writes to either: after freq,
// linear and forest fits on every set at once (run it under -race) each
// column still holds what a frame over an untouched copy of the relation does.
func TestSharedColumns(t *testing.T) {
	build := func() *relation.Relation {
		rel := relation.NewRelation("T", relation.MustSchema(
			relation.Column{Name: "ID", Kind: relation.KindInt, Key: true},
			relation.Column{Name: "G", Kind: relation.KindInt},
			relation.Column{Name: "S", Kind: relation.KindString},
			relation.Column{Name: "C", Kind: relation.KindFloat},
			relation.Column{Name: "X", Kind: relation.KindInt, Mutable: true},
			relation.Column{Name: "W", Kind: relation.KindInt, Mutable: true},
			relation.Column{Name: "Y", Kind: relation.KindFloat, Mutable: true},
		))
		rng := stats.NewRNG(17)
		for i := 0; i < 400; i++ {
			g, x, w := rng.Intn(4), rng.Intn(3), rng.Intn(2)
			c := 0.5*float64(g) + rng.Float64()
			rel.MustInsert(relation.Int(int64(i)), relation.Int(int64(g)), relation.String("abc"[g%3:g%3+1]),
				relation.Float(c), relation.Int(int64(x)), relation.Int(int64(w)), relation.Float(c+0.3*float64(x+w)+rng.Float64()))
		}
		return rel
	}
	rel, pristine := build(), build() // the second's columns are its own: nothing below can reach them
	db := relation.NewDatabase()
	db.MustAdd(rel)
	model := causal.NewModel()
	for _, e := range [][2]string{{"G", "X"}, {"C", "X"}, {"G", "W"}, {"C", "W"}, {"X", "Y"}, {"W", "Y"}, {"G", "Y"}, {"C", "Y"}} {
		model.AddEdge("T."+e[0], "T."+e[1])
	}
	model.AddCross(causal.CrossEdge{FromRel: "T", FromAttr: "X", ToRel: "T", ToAttr: "Y", GroupBy: "T.G"})

	cache := NewCache()
	const psi = "psi_X_by_G"
	var preps []*evaluator
	for _, tc := range []struct {
		query string
		opts  Options
		kind  string
	}{
		{`USE T UPDATE(W) = 1 OUTPUT AVG(POST(Y))`, Options{}, "forest"},
		{`USE T UPDATE(W) = 1 OUTPUT AVG(POST(Y))`, Options{Estimator: EstimatorLinear}, "linear"},
		{`USE T UPDATE(W) = 1 OUTPUT AVG(POST(Y))`, Options{Estimator: EstimatorFreq}, "freq"},
		{`USE T UPDATE(W) = 0 OUTPUT AVG(POST(Y)) FOR PRE(S) = 'a'`, Options{Mode: ModeNB}, "forest"},
		{`USE T WHEN G >= 1 UPDATE(X) = 2 OUTPUT AVG(POST(Y))`, Options{}, "forest"}, // ψ: X has a cross-tuple edge
	} {
		q, err := hyperql.ParseWhatIf(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		tc.opts.Seed, tc.opts.Cache = 5, cache
		p, err := prepareEvaluation(context.Background(), db, model, q, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.v.Rel != rel || p.est.kind != tc.kind {
			t.Fatalf("%s: view is the relation = %v, estimator %s, want %s", tc.query, p.v.Rel == rel, p.est.kind, tc.kind)
		}
		preps = append(preps, p)
	}

	// One address per view column across the sets; the ψ column is its own.
	owner := map[string]*float64{}
	sets := map[*estimatorSet]bool{}
	shared := 0
	for _, p := range preps {
		est := p.est
		sets[est] = true
		for c, name := range est.featCols {
			at := &est.frame.Col(c)[0]
			switch first, seen := owner[name]; {
			case name == psi:
				for other, addr := range owner {
					if addr == at {
						t.Errorf("the ψ column shares memory with column %s", other)
					}
				}
			case !seen:
				owner[name] = at
			case first != at:
				t.Errorf("column %s is encoded twice: %p and %p", name, first, at)
			default:
				shared++
			}
		}
	}
	if len(sets) != len(preps) || shared == 0 || owner["C"] == nil {
		t.Fatalf("%d distinct sets of %d, %d shared columns: the test proved nothing", len(sets), len(preps), shared)
	}
	hasPsi := preps[len(preps)-1].est
	if hasPsi.featureIndex(psi) < 0 {
		t.Fatalf("no ψ feature in %v", hasPsi.featCols)
	}

	var wg sync.WaitGroup
	for _, p := range preps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.evaluate(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// ψ afresh: the mean of X over the rows sharing a G, summed in row order.
	var sumX, rowsOf [4]float64
	for ix := range pristine.Len() {
		row := pristine.Row(ix)
		sumX[row[1].AsInt()] += row[4].AsFloat()
		rowsOf[row[1].AsInt()]++
	}
	for _, p := range preps {
		est := p.est
		if est.trainedModels() == 0 {
			t.Errorf("%v: nothing was fitted", est.featCols)
		}
		for c, name := range est.featCols {
			var fresh []float64
			if name == psi {
				for ix := range pristine.Len() {
					row := pristine.Row(ix)
					fresh = append(fresh, sumX[row[1].AsInt()]/rowsOf[row[1].AsInt()])
				}
			} else {
				fresh = ml.NewFrame(ml.NewEncoder(pristine, []string{name}), pristine).Col(0)
			}
			for r, v := range est.frame.Col(c) {
				if math.Float64bits(v) != math.Float64bits(fresh[r]) {
					t.Fatalf("%s estimator, column %s row %d: %v after the fits, a fresh frame holds %v", est.kind, name, r, v, fresh[r])
				}
			}
		}
	}
}
