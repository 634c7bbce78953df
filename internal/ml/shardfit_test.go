package ml

import (
	"testing"

	"hyper/internal/shard"
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
			if got, want := sharded.Support(), whole.Support(); got != want {
				t.Fatalf("k=%d workers=%d: support %d, want %d", k, workers, got, want)
			}
			for _, x := range probes {
				if got, want := sharded.Predict(x), whole.Predict(x); got != want {
					t.Errorf("k=%d workers=%d: Predict(%v) = %v, want %v", k, workers, x, got, want)
				}
			}
			if got, want := sharded.SupportOf(X[0]), whole.SupportOf(X[0]); got != want {
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
