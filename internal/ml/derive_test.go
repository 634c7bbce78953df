package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hyper/internal/shard"
)

// deriveCase draws a discrete frame of n rows over dim features with small
// alphabets and a prefix length: the rows an ancestor version indexed.
func deriveCase(rng *rand.Rand) (X [][]float64, na, keepFirst int) {
	n, dim := 2+rng.Intn(600), 1+rng.Intn(4)
	card := make([]int, dim)
	for c := range card {
		card[c] = 1 + rng.Intn(5)
	}
	X = make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for c := range X[i] {
			X[i][c] = float64(rng.Intn(card[c]))
		}
	}
	return X, 1 + rng.Intn(n), rng.Intn(dim + 1)
}

// TestFreqIndexExtendMatchesNew is the oracle of FreqIndex.Extend and
// FreqEstimator.Extend over random prefix/delta splits: the index extended
// from the prefix's equals NewFreqIndex over all rows — exact ids per row,
// counts, cell offsets, level cells, Has at seen and unseen points — and the
// integer-label model extended from the prefix's has Fit's cells to the bit
// at shard plans of 1 and 5, so it predicts Fit's bits everywhere. When the
// delta grows an alphabet the index refuses to extend.
func TestFreqIndexExtendMatchesNew(t *testing.T) {
	extended, grown := 0, 0
	for seed := range int64(300) {
		rng := rand.New(rand.NewSource(seed))
		X, na, keepFirst := deriveCase(rng)
		n := len(X)
		full := FrameFromRows(X)
		anc := NewFreqIndex(FrameFromRows(X[:na]), identityRows(na), keepFirst)
		fresh := NewFreqIndex(full, identityRows(n), keepFirst)
		got, ok := anc.Extend(full, identityRows(n))
		if !slices.Equal(full.card, anc.card) {
			if ok {
				t.Fatalf("seed %d: extended across a grown alphabet %v -> %v", seed, anc.card, full.card)
			}
			grown++
			continue
		}
		if !ok {
			t.Fatalf("seed %d: refused to extend at equal alphabets", seed)
		}
		extended++
		for i := range n {
			if got.ids.At(i) != fresh.ids.At(i) {
				t.Fatalf("seed %d row %d: exact id %d, want %d", seed, i, got.ids.At(i), fresh.ids.At(i))
			}
		}
		if !slices.Equal(got.n, fresh.n) || !slices.Equal(got.off, fresh.off) || !slices.Equal(got.up, fresh.up) || got.Len() != fresh.Len() {
			t.Fatalf("seed %d: counts/offsets/levels differ:\n got n=%v off=%v up=%v\nwant n=%v off=%v up=%v",
				seed, got.n, got.off, got.up, fresh.n, fresh.off, fresh.up)
		}
		points := append(slices.Clone(X), randomPoints(rng, len(X[0]), 40)...)
		for _, x := range points {
			if got.Has(x) != fresh.Has(x) {
				t.Fatalf("seed %d: Has(%v) = %v, want %v", seed, x, got.Has(x), fresh.Has(x))
			}
		}

		y := make([]float64, n)
		for i := range y {
			y[i] = float64(rng.Intn(7) - 3)
		}
		ancModel := anc.Fit(y[:na], shard.Rows(na, 1+rng.Intn(na)), 1)
		der, ok := ancModel.Extend(got, y[na:])
		if !ok {
			t.Fatalf("seed %d: integer labels refused to extend", seed)
		}
		for _, k := range []int{1, 5} {
			want := fresh.Fit(y, shard.Fixed(n, k), 2)
			if !sameBits(der.sums, want.sums) {
				t.Fatalf("seed %d plan %d: extended cells %v, want %v", seed, k, der.sums, want.sums)
			}
			for _, x := range points {
				if a, b := der.Predict(x), want.Predict(x); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d plan %d: Predict(%v) = %v, want %v", seed, k, x, a, b)
				}
			}
		}
	}
	if extended == 0 || grown == 0 {
		t.Fatalf("extended %d, grown %d: the splits must exercise both", extended, grown)
	}
}

// TestFreqEstimatorExtendRefusesInexactLabels: labels whose sums depend on
// the order of addition must not extend. The labels are chosen so that it
// matters — the guard-less extension really differs in bits from Fit at a
// five-shard plan — and then the guarded Extend must refuse, as it must for
// integer labels whose sums could pass 2^53.
func TestFreqEstimatorExtendRefusesInexactLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, na = 400, 150
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(i % 3)}
		y[i] = float64(1+rng.Intn(9)) / 10
	}
	fr := FrameFromRows(X)
	anc := NewFreqIndex(FrameFromRows(X[:na]), identityRows(na), 0)
	ix, ok := anc.Extend(fr, identityRows(n))
	if !ok {
		t.Fatal("index refused to extend")
	}
	ancModel := anc.Fit(y[:na], shard.Plan{}, 1)
	want := NewFreqIndex(fr, identityRows(n), 0).Fit(y, shard.Fixed(n, 5), 1)
	if sameBits(ancModel.extend(ix, y[na:], 0).sums, want.sums) {
		t.Fatal("the labels sum alike in both orders: they cannot show the guard is needed")
	}
	if _, ok := ancModel.Extend(ix, y[na:]); ok {
		t.Fatal("fractional labels extended")
	}
	if _, ok := anc.Fit(slices.Repeat([]float64{1}, na), shard.Plan{}, 1).Extend(ix, append(slices.Repeat([]float64{1}, n-na-1), 1<<52)); ok {
		t.Fatal("integer labels whose sums reach 2^53 extended")
	}
	if _, ok := anc.Fit(slices.Repeat([]float64{1}, na), shard.Plan{}, 1).Extend(ix, slices.Repeat([]float64{math.NaN()}, n-na)); ok {
		t.Fatal("NaN labels extended")
	}
}

// randomPoints draws prediction points over the alphabets plus values no
// row holds.
func randomPoints(rng *rand.Rand, dim, k int) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, dim)
		for c := range out[i] {
			out[i][c] = float64(rng.Intn(8) - 1)
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
