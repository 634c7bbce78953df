package ml

// The frequency estimator and the support set key every level of their index
// through relation.TupleIndex, whose regime — a flat table, a map of packed
// keys, or byte-string keys past 64 bits — follows from the column
// cardinalities and the row count. FuzzFreqParity holds every regime to the
// string-keyed reference, sharded fits to the reference merged in shard
// order, and the support set to the estimator; TestFreqIndexConcurrentReaders
// holds the read-only lookups to their serial answers under concurrency.

import (
	"math"
	"sync"
	"testing"

	"hyper/internal/shard"
	"hyper/internal/stats"
)

// tupleRegime names the TupleIndex regime of the estimator's exact level over
// a frame with the given cardinalities: NewTupleIndex's rule over the
// alphabets card+1 (the codes plus the unseen code).
func tupleRegime(card []uint32, rows int) string {
	acc := uint64(1)
	for _, c := range card {
		a := uint64(c) + 1
		if acc > math.MaxUint64/a {
			return "wide"
		}
		acc *= a
	}
	if acc <= uint64(rows) {
		return "dense"
	}
	return "packed"
}

// regimeData draws n rows of dim features whose cardinalities put the exact
// level in the given regime ("dense", "packed", "wide"), with integer labels
// or, when floatLabels is set, non-integer ones. The wide regime needs eight
// columns of more than 256 values: row r holds (r+c) mod a period over 256 in
// column c, so with n at least twice the period every value occurs and every
// combination occurs at least twice.
func regimeData(rng *stats.RNG, regime string, n, dim int, floatLabels bool) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	domain := make([]int, dim)
	for c := range domain {
		if regime == "dense" {
			domain[c] = 1 + rng.Intn(3)
		} else {
			domain[c] = 2 + rng.Intn(40)
		}
	}
	period := 257 + rng.Intn(30)
	for r := range X {
		X[r] = make([]float64, dim)
		for c := range X[r] {
			if regime == "wide" {
				X[r][c] = float64((r + c) % period)
			} else {
				X[r][c] = 0.5 * float64(rng.Intn(domain[c]))
			}
		}
		if floatLabels {
			y[r] = rng.Float64()*7 - 2
		} else {
			y[r] = float64(rng.Intn(5))
		}
	}
	return X, y
}

// merge folds o's cells into f in the order FitFreqFrameSharded folds its
// parts: a cell new to f is o's, a cell in both adds o's sum once.
func (f *refFreq) merge(o *refFreq) {
	fold := func(dst, src map[string]*cell) {
		for k, c := range src {
			if d := dst[k]; d != nil {
				d.sum += c.sum
				d.n += c.n
			} else {
				dst[k] = c
			}
		}
	}
	fold(f.exact, o.exact)
	for i := f.keepFirst; i < f.dim; i++ {
		fold(f.backoff[i], o.backoff[i])
	}
	fold(f.firstOnly, o.firstOnly)
	f.global.sum += o.global.sum
	f.global.n += o.global.n
}

// refFitSharded is the reference fitted per shard of plan and merged in shard
// order (empty shards contribute nothing).
func refFitSharded(X [][]float64, y []float64, keepFirst int, plan shard.Plan) *refFreq {
	var out *refFreq
	for s := 0; s < plan.Shards(); s++ {
		lo, hi := plan.Bounds(s)
		if lo == hi {
			continue
		}
		p := refFitFreq(X[lo:hi], y[lo:hi], keepFirst)
		if out == nil {
			out = p
		} else {
			out.merge(p)
		}
	}
	return out
}

func FuzzFreqParity(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint8(1), uint16(300), false) // dense
	f.Add(int64(2), uint8(3), uint8(1), uint8(0), uint16(200), true)  // packed map
	f.Add(int64(3), uint8(7), uint8(2), uint8(2), uint16(80), true)   // wide
	f.Add(int64(4), uint8(0), uint8(0), uint8(1), uint16(5), true)    // one column, all protected
	f.Add(int64(5), uint8(5), uint8(1), uint8(9), uint16(0), false)   // keepFirst past dim
	f.Fuzz(func(t *testing.T, seed int64, dim, regime, keep uint8, rows uint16, floatLabels bool) {
		rng := stats.NewRNG(seed)
		d := 1 + int(dim%8)
		n := 1 + int(rows%400)
		name := [...]string{"dense", "packed", "wide"}[regime%3]
		if name == "wide" {
			d = 8
			n += 600 // twice the largest period: each combination occurs twice
		}
		keepFirst := int(keep % 10)
		X, y := regimeData(rng, name, n, d, floatLabels)
		probes := probesFor(rng, X, d)

		whole := FitFreqKeep(X, y, keepFirst)
		ref := refFitFreq(X, y, keepFirst)
		if whole.Support() != len(ref.exact) {
			t.Fatalf("Support = %d, reference %d", whole.Support(), len(ref.exact))
		}
		comparePredictions(t, whole, ref, probes, name)

		fr := FrameFromRows(X)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		set := NewSupportSet(fr, all)
		for k := 1; k <= 3; k++ {
			plan := shard.Fixed(n, k)
			sharded := FitFreqFrameSharded(fr, all, y, keepFirst, plan, 2)
			want := refFitSharded(X, y, keepFirst, plan)
			if sharded.Support() != len(want.exact) {
				t.Fatalf("%d shards: Support = %d, reference %d", k, sharded.Support(), len(want.exact))
			}
			comparePredictions(t, sharded, want, probes, name)
			shardedSet := NewSupportSetSharded(fr, all, plan, 2)
			if shardedSet.Len() != set.Len() || set.Len() != whole.Support() {
				t.Fatalf("%d shards: SupportSet.Len %d, whole %d, estimator support %d", k, shardedSet.Len(), set.Len(), whole.Support())
			}
			for _, x := range probes {
				n := whole.SupportOf(x)
				if set.Has(x) != (n > 0) || shardedSet.Has(x) != (n > 0) {
					t.Fatalf("%d shards: Has(%v) = %v (sharded %v), SupportOf = %d", k, x, set.Has(x), shardedSet.Has(x), n)
				}
			}
		}
	})
}

// TestFreqIndexConcurrentReaders: eight goroutines predict, count support and
// probe the support set on one fitted estimator and set, in each regime, and
// every answer must be the serial one. Under -race this holds the lookups to
// never writing the index they share.
func TestFreqIndexConcurrentReaders(t *testing.T) {
	for _, tc := range []struct {
		regime string
		n, dim int
	}{{"dense", 400, 3}, {"packed", 400, 5}, {"wide", 700, 8}} {
		t.Run(tc.regime, func(t *testing.T) {
			rng := stats.NewRNG(17)
			X, y := regimeData(rng, tc.regime, tc.n, tc.dim, true)
			fr := FrameFromRows(X)
			fr.Intern()
			if got := tupleRegime(fr.card, tc.n); got != tc.regime {
				t.Fatalf("cardinalities %v over %d rows index %s, want %s", fr.card, tc.n, got, tc.regime)
			}
			all := make([]int, tc.n)
			for i := range all {
				all[i] = i
			}
			est := FitFreqFrameSharded(fr, all, y, 1, shard.Fixed(tc.n, 3), 2)
			set := NewSupportSetSharded(fr, all, shard.Fixed(tc.n, 3), 2)
			probes := probesFor(rng, X, tc.dim)
			type answer struct {
				mean    float64
				support int
				has     bool
			}
			want := make([]answer, len(probes))
			for i, x := range probes {
				want[i] = answer{est.Predict(x), est.SupportOf(x), set.Has(x)}
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						for i := range probes {
							x := probes[(i+g*7)%len(probes)]
							w := want[(i+g*7)%len(probes)]
							if got := (answer{est.Predict(x), est.SupportOf(x), set.Has(x)}); got != w {
								t.Errorf("goroutine %d: %v answered %+v, serially %+v", g, x, got, w)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
