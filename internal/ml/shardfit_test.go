package ml

import (
	"math"
	"testing"

	"hyper/internal/shard"
	"hyper/internal/stats"
)

// shardTestData builds a discrete 3-feature training set with integer
// labels: integer sums are exact under any regrouping, so per-shard fits
// folded in plan order must reproduce the whole-range fit bit for bit.
func shardTestData(n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{float64(i % 4), float64(i % 3), float64((i / 3) % 5)}
		y[i] = float64((i*i + 7) % 2)
	}
	return X, y
}

func TestFreqIndexShardedFitMatchesWholeFit(t *testing.T) {
	const n = 1000
	X, y := shardTestData(n)
	ix := NewFreqIndex(FrameFromRows(X), identityRows(n), 1)
	whole := ix.Fit(y, shard.Plan{}, 1)

	probes := append([][]float64{
		{99, 99, 99}, // unseen everywhere: global-mean fallback
		{0, 99, 99},  // partial: backoff path
		{3, 2, 4},
	}, X[:50]...)

	for _, k := range []int{1, 2, 3, 7, n + 5} { // n+5: empty trailing shards
		for _, workers := range []int{1, 4} {
			sharded := ix.Fit(y, shard.Fixed(n, k), workers)
			if got, want := sharded.ix.Len(), whole.ix.Len(); got != want {
				t.Fatalf("k=%d workers=%d: support %d, want %d", k, workers, got, want)
			}
			for _, x := range probes {
				if got, want := sharded.Predict(x), whole.Predict(x); got != want {
					t.Errorf("k=%d workers=%d: Predict(%v) = %v, want %v", k, workers, x, got, want)
				}
			}
			if got, want := exactSupport(sharded, X[0]), exactSupport(whole, X[0]); got != want {
				t.Errorf("k=%d workers=%d: SupportOf = %d, want %d", k, workers, got, want)
			}
		}
	}
}

// TestFreqIndexShardedFitDeterministicFloatSums pins the plan-order fold
// with non-integer labels: different plans may legitimately regroup sums,
// but a fixed plan must produce identical bits for every worker count.
func TestFreqIndexShardedFitDeterministicFloatSums(t *testing.T) {
	const n = 999
	X, _ := shardTestData(n)
	y := make([]float64, n)
	for i := range y {
		y[i] = 0.1 * float64(i%17) / 3.0
	}
	ix := NewFreqIndex(FrameFromRows(X), identityRows(n), 1)
	plan := shard.Fixed(n, 7)
	base := ix.Fit(y, plan, 1)
	for _, workers := range []int{2, 3, 8} {
		got := ix.Fit(y, plan, workers)
		if !sameFit(got, base) {
			t.Fatalf("workers=%d: cell sums differ from workers=1", workers)
		}
		for _, x := range X[:100] {
			if got.Predict(x) != base.Predict(x) {
				t.Fatalf("workers=%d: Predict(%v) = %v, want %v", workers, x, got.Predict(x), base.Predict(x))
			}
		}
	}
}

// TestFreqIndexHasTrainingRows: an index over a subset of the frame rows,
// as a sampled estimator set builds, holds exactly the combinations of those
// rows — whichever rows of the frame hold them — and no other. The data
// repeats every 60 rows; 30 rows a step of 7 apart hold half its
// combinations.
func TestFreqIndexHasTrainingRows(t *testing.T) {
	const n = 500
	X, _ := shardTestData(n)
	var rows []int
	want := map[[3]float64]bool{}
	for r := n - 1; len(rows) < 30; r -= 7 {
		rows = append(rows, r)
		want[[3]float64(X[r])] = true
	}
	ix := NewFreqIndex(FrameFromRows(X), rows, 1)
	if len(want) != 30 || ix.Len() != len(want) {
		t.Fatalf("%d distinct combos, want %d", ix.Len(), len(want))
	}
	for _, x := range X {
		if ix.Has(x) != want[[3]float64(x)] {
			t.Errorf("Has(%v) = %v, want %v", x, ix.Has(x), want[[3]float64(x)])
		}
	}
	if ix.Has([]float64{99, 99, 99}) {
		t.Error("phantom support")
	}
}

// TestShardMergeableCapability pins the capability flag the engine keys its
// per-shard-fit decision on.
func TestShardMergeableCapability(t *testing.T) {
	if !ShardMergeable("freq") {
		t.Error("freq must be shard-mergeable")
	}
	for _, kind := range []string{"forest", "linear", "boosted", ""} {
		if ShardMergeable(kind) {
			t.Errorf("%q must not be shard-mergeable", kind)
		}
	}
}

// TestFreqIndexIntegerFitMatchesRowFit: labels that sum exactly in any order
// (exactSums) fit per exact cell and roll up, and must give the cells of the
// per-row, per-shard fit to the bit — so the reference fitted per shard and
// merged in shard order predicts alike — at shard plans of 1 to 3 shards
// and 1 or 2 workers. The cases pin -0 labels (a cell must read +0, as a
// running sum from +0 does), all-zero labels, labels up to 7 of either sign,
// and the guard's edge: bound × rows = 2^53 − 1 takes the cell path, 2^53
// and fractional labels the row path, where the cell path would change the
// fractional cells' bits.
func TestFreqIndexIntegerFitMatchesRowFit(t *testing.T) {
	const bound53 = 1416003655831 // 6361 × 1416003655831 = 2^53 − 1
	for _, tc := range []struct {
		name  string
		n     int
		label func(i int) float64
		cells bool // the labels take the cell path
	}{
		{"negative-zero", 600, func(i int) float64 {
			if i%3 == 0 {
				return math.Copysign(0, -1)
			}
			return float64(i % 2)
		}, true},
		{"all-zero", 600, func(int) float64 { return 0 }, true},
		{"up-to-7", 600, func(i int) float64 { return float64((i*i+3)%15 - 7) }, true},
		{"bound-times-rows-2^53-1", 6361, func(i int) float64 {
			return float64(1-2*(i%2)) * float64(bound53-i%1000)
		}, true},
		{"bound-times-rows-2^53", 4096, func(i int) float64 {
			return float64(1-2*(i%2)) * float64(1<<41-i%1000)
		}, false},
		{"fractional", 600, func(i int) float64 { return float64(i%7) / 10 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			X, _ := shardTestData(tc.n)
			y := make([]float64, tc.n)
			for i := range y {
				y[i] = tc.label(i)
			}
			if got := exactSums(integerBound(y, 0), tc.n); got != tc.cells {
				t.Fatalf("exactSums = %v, want %v", got, tc.cells)
			}
			ix := NewFreqIndex(FrameFromRows(X), identityRows(tc.n), 1)
			probes := probesFor(stats.NewRNG(5), X, 3)
			cellsDiffer := false
			for k := 1; k <= 3; k++ {
				plan := shard.Fixed(tc.n, k)
				rowFit := make([]float64, len(ix.n))
				ix.fitRows(rowFit, y, plan, 1)
				cellFit := make([]float64, len(ix.n))
				ix.addExact(cellFit, y, 0)
				cellsDiffer = cellsDiffer || !sameBits(cellFit, rowFit)
				for workers := 1; workers <= 2; workers++ {
					f := ix.Fit(y, plan, workers)
					if !sameBits(f.sums, rowFit) {
						t.Fatalf("plan %d workers %d: cells differ from the per-row fit", k, workers)
					}
					comparePredictions(t, f, refFitSharded(X, y, 1, plan), probes, tc.name)
				}
			}
			if tc.name == "fractional" && !cellsDiffer {
				t.Fatal("the fractional labels sum alike per cell and per row: they cannot show the row path is kept")
			}
		})
	}
}

// TestIntegerBound pins the guard of the per-cell fit: the largest |label|
// when every label is an integer below 2^53, and -1 for a fraction, NaN,
// ±Inf or an integer at or past 2^53, wherever it sits among the labels.
func TestIntegerBound(t *testing.T) {
	for _, tc := range []struct {
		y    []float64
		m    float64
		want float64
	}{
		{nil, 0, 0},
		{[]float64{1, -3, 2}, 0, 3},
		{[]float64{1, -3, 2}, 5, 5},
		{[]float64{math.Copysign(0, -1), 0}, 0, 0},
		{[]float64{1<<53 - 1, 2}, 0, 1<<53 - 1},
		{[]float64{2, -(1<<53 - 1)}, 0, 1<<53 - 1},
		{[]float64{1, 1 << 53}, 0, -1},
		{[]float64{1e300, 1}, 0, -1},
		{[]float64{1, 0.5}, 0, -1},
		{[]float64{-2.5, 1}, 0, -1},
		{[]float64{1, 1<<51 + 0.5}, 0, -1},
		{[]float64{math.NaN(), 1}, 0, -1},
		{[]float64{1, math.Inf(1)}, 0, -1},
		{[]float64{math.Inf(-1)}, 0, -1},
	} {
		if got := integerBound(tc.y, tc.m); got != tc.want {
			t.Errorf("integerBound(%v, %v) = %v, want %v", tc.y, tc.m, got, tc.want)
		}
	}
}
