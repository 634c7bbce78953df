package ml

// The frequency index keys every level through relation.TupleIndex, whose
// regime — a flat table, a map of packed keys, or byte-string keys past 64
// bits — follows from the column cardinalities and the row count.
// FuzzFreqParity holds every regime to the string-keyed reference: several
// label vectors fitted on one index, whole and per shard, to the reference
// fitted whole and merged in shard order, and the index's membership to the
// reference's exact keys. TestFreqIndexConcurrentReaders holds the read-only
// lookups to their serial answers under concurrency, and
// TestFreqIndexConcurrentFits fits on one index while others read it.

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
// level in the given regime ("dense", "packed", "wide"), with two label
// vectors: 0/1 labels, and non-integer ones in which every fifth is -0.0. The
// wide regime needs eight columns of more than 256 values: row r holds
// (r+c) mod a period over 256 in column c, so with n at least twice the
// period every value occurs and every combination occurs at least twice.
func regimeData(rng *stats.RNG, regime string, n, dim int) (X [][]float64, binary, float []float64) {
	X = make([][]float64, n)
	binary, float = make([]float64, n), make([]float64, n)
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
		binary[r] = float64(rng.Intn(2))
		float[r] = rng.Float64()*7 - 2
		if r%5 == 0 {
			float[r] = math.Copysign(0, -1)
		}
	}
	return X, binary, float
}

// merge folds o's cells into f the way a shard-by-shard fit merged its parts
// before fits went through one index: a cell new to f is o's, a cell in both
// adds o's sum once.
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
	f.Add(int64(1), uint8(2), uint8(0), uint8(1), uint16(300)) // dense
	f.Add(int64(2), uint8(3), uint8(1), uint8(0), uint16(200)) // packed map
	f.Add(int64(3), uint8(7), uint8(2), uint8(2), uint16(80))  // wide
	f.Add(int64(4), uint8(0), uint8(0), uint8(1), uint16(5))   // one column, all protected
	f.Add(int64(5), uint8(5), uint8(1), uint8(9), uint16(0))   // keepFirst past dim
	f.Fuzz(func(t *testing.T, seed int64, dim, regime, keep uint8, rows uint16) {
		rng := stats.NewRNG(seed)
		d := 1 + int(dim%8)
		n := 1 + int(rows%400)
		name := [...]string{"dense", "packed", "wide"}[regime%3]
		if name == "wide" {
			d = 8
			n += 600 // twice the largest period: each combination occurs twice
		}
		keepFirst := int(keep % 10)
		X, binary, float := regimeData(rng, name, n, d)
		probes := probesFor(rng, X, d)

		ix := NewFreqIndex(FrameFromRows(X), identityRows(n), keepFirst)
		ref := refFitFreq(X, binary, keepFirst)
		if ix.Len() != len(ref.exact) {
			t.Fatalf("Len = %d, reference %d", ix.Len(), len(ref.exact))
		}
		for _, x := range probes {
			if ix.Has(x) != (ref.supportOf(x) > 0) {
				t.Fatalf("Has(%v) = %v, reference support %d", x, ix.Has(x), ref.supportOf(x))
			}
		}
		for _, y := range [][]float64{binary, float} {
			comparePredictions(t, ix.Fit(y, shard.Plan{}, 1), refFitFreq(X, y, keepFirst), probes, name)
			for k := 1; k <= 3; k++ {
				plan := shard.Fixed(n, k)
				comparePredictions(t, ix.Fit(y, plan, 2), refFitSharded(X, y, keepFirst, plan), probes, name)
			}
		}
		comparePredictions(t, FitFreqKeep(X, float, keepFirst), refFitFreq(X, float, keepFirst), probes, name+" one-shot")
	})
}

// TestFreqIndexConcurrentReaders: eight goroutines predict, count support and
// probe the index on one fitted estimator, in each regime, and every answer
// must be the serial one. Under -race this holds the lookups to never writing
// the index they share.
func TestFreqIndexConcurrentReaders(t *testing.T) {
	for _, tc := range []struct {
		regime string
		n, dim int
	}{{"dense", 400, 3}, {"packed", 400, 5}, {"wide", 700, 8}} {
		t.Run(tc.regime, func(t *testing.T) {
			rng := stats.NewRNG(17)
			X, _, y := regimeData(rng, tc.regime, tc.n, tc.dim)
			fr := FrameFromRows(X)
			fr.Intern()
			if got := tupleRegime(fr.card, tc.n); got != tc.regime {
				t.Fatalf("cardinalities %v over %d rows index %s, want %s", fr.card, tc.n, got, tc.regime)
			}
			ix := NewFreqIndex(fr, identityRows(tc.n), 1)
			est := ix.Fit(y, shard.Fixed(tc.n, 3), 2)
			probes := probesFor(rng, X, tc.dim)
			type answer struct {
				mean    float64
				support int
				has     bool
			}
			want := make([]answer, len(probes))
			for i, x := range probes {
				want[i] = answer{est.Predict(x), est.SupportOf(x), ix.Has(x)}
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
							if got := (answer{est.Predict(x), est.SupportOf(x), ix.Has(x)}); got != w {
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

// sameFit reports whether two estimators fitted on one index hold the same
// cell sums, to the bit.
func sameFit(a, b *FreqEstimator) bool {
	if len(a.sums) != len(b.sums) {
		return false
	}
	for c := range a.sums {
		if math.Float64bits(a.sums[c]) != math.Float64bits(b.sums[c]) {
			return false
		}
	}
	return true
}

// TestFreqIndexConcurrentFits: in each regime, six goroutines fit labels of
// their own on one index — per shard, across workers of their own — while
// four others predict with serially fitted models and probe the index. Every
// concurrent fit must equal its serial fit to the bit, and every read its
// serial answer; under -race this holds Fit to only reading the index.
func TestFreqIndexConcurrentFits(t *testing.T) {
	for _, tc := range []struct {
		regime string
		n, dim int
	}{{"dense", 400, 3}, {"packed", 400, 5}, {"wide", 700, 8}} {
		t.Run(tc.regime, func(t *testing.T) {
			rng := stats.NewRNG(23)
			X, _, _ := regimeData(rng, tc.regime, tc.n, tc.dim)
			ix := NewFreqIndex(FrameFromRows(X), identityRows(tc.n), 1)
			plan := shard.Fixed(tc.n, 3)
			labels := make([][]float64, 6)
			serial := make([]*FreqEstimator, len(labels))
			for i := range labels {
				_, binary, float := regimeData(rng, tc.regime, tc.n, tc.dim)
				labels[i] = float
				if i%2 == 0 {
					labels[i] = binary
				}
				serial[i] = ix.Fit(labels[i], plan, 1)
			}
			probes := probesFor(rng, X, tc.dim)
			const readers = 4
			want := make([][]float64, readers) // the serial predictions of serial[g]
			for g := range want {
				for _, x := range probes {
					want[g] = append(want[g], serial[g].Predict(x))
				}
			}
			var wg sync.WaitGroup
			for i := range labels {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for round := 0; round < 5; round++ {
						if got := ix.Fit(labels[i], plan, 2); !sameFit(got, serial[i]) {
							t.Errorf("labels %d, round %d: concurrent fit differs from the serial one", i, round)
							return
						}
					}
				}(i)
			}
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 10; round++ {
						for i, x := range probes {
							if got := serial[g].Predict(x); math.Float64bits(got) != math.Float64bits(want[g][i]) {
								t.Errorf("goroutine %d: Predict(%v) = %v, serially %v", g, x, got, want[g][i])
								return
							}
							if got, n := ix.Has(x), serial[g].SupportOf(x); got != (n > 0) {
								t.Errorf("goroutine %d: Has(%v) = %v, SupportOf %d", g, x, got, n)
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
