package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	var s Summary
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 100000; i++ {
		x := r.Float64()
		s.Add(x)
		lo, hi = min(lo, x), max(hi, x)
	}
	if math.Abs(s.Mean()-0.5) > 0.01 {
		t.Errorf("uniform mean = %.4f", s.Mean())
	}
	if lo < 0 || hi >= 1 {
		t.Errorf("uniform out of range [%.4f, %.4f]", lo, hi)
	}
	// Chi-square-ish check on Intn buckets.
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn bucket %d count %d far from 10000", b, c)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.NormFloat64())
	}
	if math.Abs(s.Mean()) > 0.02 {
		t.Errorf("normal mean = %.4f", s.Mean())
	}
	if math.Abs(s.StdDev()-1) > 0.02 {
		t.Errorf("normal stddev = %.4f", s.StdDev())
	}
}

// refSampleIndexes is SampleIndexes as it stood before SampleIndexesInto:
// Floyd's algorithm over a set, then the shuffle.
func refSampleIndexes(r *RNG, n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestSampleIndexesIntoDrawsUnchanged: the scan-for-membership and reused
// destination of SampleIndexesInto change neither the indexes returned nor
// the generator state left behind, on either side of the scan/set switch.
func TestSampleIndexesIntoDrawsUnchanged(t *testing.T) {
	scratch := make([]int, 0, 4)
	for seed := int64(1); seed <= 50; seed++ {
		for _, nk := range [][2]int{{5, 2}, {4, 2}, {7, 3}, {3, 3}, {2, 5}, {40, 16}, {40, 17}, {1000, 50}} {
			a, b := NewRNG(seed), NewRNG(seed)
			want := refSampleIndexes(a, nk[0], nk[1])
			scratch = b.SampleIndexesInto(scratch, nk[0], nk[1])
			if !slices.Equal(scratch, want) || a.Intn(1<<30) != b.Intn(1<<30) {
				t.Fatalf("seed %d n=%d k=%d: %v, reference %v (or the generators diverged)", seed, nk[0], nk[1], scratch, want)
			}
		}
	}
}

func TestPermAndSampleIndexes(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, x := range p {
		if x < 0 || x >= 100 || seen[x] {
			t.Fatalf("Perm invalid at %d", x)
		}
		seen[x] = true
	}
	s := r.SampleIndexes(1000, 50)
	if len(s) != 50 {
		t.Fatalf("SampleIndexes len = %d", len(s))
	}
	dup := map[int]bool{}
	for _, x := range s {
		if x < 0 || x >= 1000 || dup[x] {
			t.Fatalf("SampleIndexes invalid at %d", x)
		}
		dup[x] = true
	}
	if got := r.SampleIndexes(5, 10); len(got) != 5 {
		t.Errorf("k>=n should return a permutation, len=%d", len(got))
	}
	bs := r.Bootstrap(100)
	if len(bs) != 100 {
		t.Errorf("Bootstrap len = %d", len(bs))
	}
}

func TestChoiceWeighted(t *testing.T) {
	r := NewRNG(5)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if counts[2] < 19000 || counts[0] > 4500 {
		t.Errorf("weighted choice off: %v", counts)
	}
	if i := r.Choice([]float64{0, 0}); i < 0 || i > 1 {
		t.Errorf("zero-weight choice = %d", i)
	}
}

func TestSummaryWelford(t *testing.T) {
	var s Summary
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		s.Add(x)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Errorf("N=%d Mean=%g", s.N(), s.Mean())
	}
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %g", s.Var())
	}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
}

func TestDistributions(t *testing.T) {
	r := NewRNG(13)
	var s Summary
	for i := 0; i < 50000; i++ {
		s.Add(Normal{Mu: 10, Sigma: 2}.Sample(r))
	}
	if math.Abs(s.Mean()-10) > 0.05 || math.Abs(s.StdDev()-2) > 0.05 {
		t.Errorf("Normal(10,2): mean=%.3f sd=%.3f", s.Mean(), s.StdDev())
	}
	s = Summary{}
	for i := 0; i < 50000; i++ {
		s.Add(Uniform{Lo: -1, Hi: 3}.Sample(r))
	}
	if math.Abs(s.Mean()-1) > 0.05 {
		t.Errorf("Uniform(-1,3) mean=%.3f", s.Mean())
	}
	s = Summary{}
	for i := 0; i < 50000; i++ {
		s.Add(Bernoulli{P: 0.3}.Sample(r))
	}
	if math.Abs(s.Mean()-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) mean=%.3f", s.Mean())
	}
	s = Summary{}
	for i := 0; i < 50000; i++ {
		s.Add(Exponential{Lambda: 2}.Sample(r))
	}
	if math.Abs(s.Mean()-0.5) > 0.02 {
		t.Errorf("Exp(2) mean=%.3f", s.Mean())
	}
	c := Categorical{Weights: []float64{1, 0, 1}}
	for i := 0; i < 100; i++ {
		if v := c.Sample(r); v == 1 {
			t.Fatal("zero-weight category sampled")
		}
	}
}

// Property: Summary matches direct two-pass computation.
func TestSummaryMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		var s Summary
		for _, x := range xs {
			s.Add(x)
		}
		mean := Mean(xs)
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		wantVar := varSum / float64(len(xs)-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-wantVar) < 1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Split produces streams independent of subsequent parent draws.
func TestSplitStabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := NewRNG(seed)
		s1 := a.Split()
		v1 := s1.Uint64()
		b := NewRNG(seed)
		s2 := b.Split()
		return s2.Uint64() == v1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
