package ml

import (
	"math"
	"testing"
	"testing/quick"

	"hyper/internal/relation"
	"hyper/internal/stats"
)

// makeXY generates y = f(x) + noise over random features.
func makeXY(n, d int, seed int64, f func(x []float64) float64, noise float64) ([][]float64, []float64) {
	rng := stats.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()*10 - 5
		}
		X[i] = x
		y[i] = f(x) + noise*rng.NormFloat64()
	}
	return X, y
}

func mse(m Regressor, X [][]float64, y []float64) float64 {
	s := 0.0
	for i, x := range X {
		d := m.Predict(x) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}

// treeDepth is the longest root-to-leaf path of a fitted tree, in splits.
func treeDepth(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	return 1 + max(treeDepth(n.left), treeDepth(n.right))
}

// treeLeaves counts a fitted tree's leaves.
func treeLeaves(n *treeNode) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return treeLeaves(n.left) + treeLeaves(n.right)
}

func TestTreeFitsStepFunction(t *testing.T) {
	X, y := makeXY(2000, 2, 1, func(x []float64) float64 {
		if x[0] > 0 {
			return 10
		}
		return -10
	}, 0.5)
	tree := FitTreeFrame(FrameFromRows(X), nil, y, nil, DefaultTreeParams(), nil)
	if m := mse(tree, X, y); m > 1 {
		t.Errorf("tree MSE on step function = %.3f", m)
	}
	if treeDepth(tree.root) < 1 || treeLeaves(tree.root) < 2 {
		t.Errorf("tree depth=%d leaves=%d", treeDepth(tree.root), treeLeaves(tree.root))
	}
}

func TestTreeConstantTarget(t *testing.T) {
	X, y := makeXY(100, 2, 2, func([]float64) float64 { return 7 }, 0)
	tree := FitTreeFrame(FrameFromRows(X), nil, y, nil, DefaultTreeParams(), nil)
	if treeLeaves(tree.root) != 1 {
		t.Errorf("constant target should yield one leaf, got %d", treeLeaves(tree.root))
	}
	if tree.Predict([]float64{0, 0}) != 7 {
		t.Errorf("predict = %g", tree.Predict([]float64{0, 0}))
	}
}

func TestTreeRespectsDepthAndLeaf(t *testing.T) {
	X, y := makeXY(1000, 3, 3, func(x []float64) float64 { return x[0] * x[1] }, 0.1)
	p := TreeParams{MaxDepth: 3, MinLeaf: 50, MaxThresholds: 16}
	tree := FitTreeFrame(FrameFromRows(X), nil, y, nil, p, nil)
	if treeDepth(tree.root) > 3 {
		t.Errorf("depth %d exceeds max 3", treeDepth(tree.root))
	}
}

func TestForestBeatsGuessOnNonlinear(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(x[0]) * 3 * x[1] }
	X, y := makeXY(3000, 2, 4, f, 0.3)
	forest := FitForestFrame(FrameFromRows(X), nil, y, ForestParams{NumTrees: 15, Seed: 4, Tree: DefaultTreeParams()})
	var base stats.Summary
	for _, yy := range y {
		base.Add(yy)
	}
	if m := mse(forest, X, y); m > 0.5*base.Var() {
		t.Errorf("forest MSE %.3f should beat half the variance %.3f", m, base.Var())
	}
}

func TestForestDeterminism(t *testing.T) {
	X, y := makeXY(500, 3, 5, func(x []float64) float64 { return x[0] + x[2] }, 0.2)
	p := ForestParams{NumTrees: 8, Seed: 99}
	a, b := FitForestFrame(FrameFromRows(X), nil, y, p), FitForestFrame(FrameFromRows(X), nil, y, p)
	for i := 0; i < 20; i++ {
		x := X[i]
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("forest training must be deterministic per seed (even when parallel)")
		}
	}
}

func TestFreqExactAndBackoff(t *testing.T) {
	X := [][]float64{{1, 1}, {1, 1}, {1, 2}, {2, 1}}
	y := []float64{10, 20, 30, 40}
	f := FitFreq(X, y)
	if got := f.Predict([]float64{1, 1}); got != 15 {
		t.Errorf("exact cell = %g, want 15", got)
	}
	if f.ix.Len() != 3 {
		t.Errorf("Support = %d", f.ix.Len())
	}
	if exactSupport(f, []float64{1, 2}) != 1 || exactSupport(f, []float64{9, 9}) != 0 {
		t.Error("SupportOf misbehaves")
	}
	// Unseen (2,2): single-feature wildcards (2,*) -> 40 and (*,2) -> 30,
	// averaged = 35.
	if got := f.Predict([]float64{2, 2}); got != 35 {
		t.Errorf("backoff = %g, want 35", got)
	}
	// Completely unseen: global mean = 25.
	if got := f.Predict([]float64{7, 7}); got != 25 {
		t.Errorf("global fallback = %g, want 25", got)
	}
}

func TestFreqKeepFirstProtectsUpdateFeature(t *testing.T) {
	// Feature 0 is the "update" feature; backoff must never wildcard it.
	X := [][]float64{{1, 1}, {1, 2}, {2, 2}}
	y := []float64{10, 20, 50}
	f := FitFreqKeep(X, y, 1)
	// (2, 1) unseen: wildcard feature 1 -> key "2,*" -> 50.
	if got := f.Predict([]float64{2, 1}); got != 50 {
		t.Errorf("keepFirst backoff = %g, want 50", got)
	}
	// (3, 1): feature-0 value 3 never seen; firstOnly has no "3" -> global.
	want := (10.0 + 20 + 50) / 3
	if got := f.Predict([]float64{3, 1}); math.Abs(got-want) > 1e-12 {
		t.Errorf("global = %g, want %g", got, want)
	}
}

func TestLinearRecoversCoefficients(t *testing.T) {
	X, y := makeXY(2000, 3, 6, func(x []float64) float64 {
		return 2*x[0] - 3*x[1] + 0.5*x[2] + 7
	}, 0.1)
	l := FitLinearFrame(FrameFromRows(X), nil, y, 1e-6)
	// The fit is affine: its value at 0 is the intercept, and a unit step
	// along feature i adds weight i.
	b := l.Predict([]float64{0, 0, 0})
	for i, ww := range []float64{2, -3, 0.5} {
		unit := make([]float64, 3)
		unit[i] = 1
		if w := l.Predict(unit) - b; math.Abs(w-ww) > 0.02 {
			t.Errorf("w[%d] = %.4f, want %.1f", i, w, ww)
		}
	}
	if math.Abs(b-7) > 0.05 {
		t.Errorf("intercept = %.4f", b)
	}
}

func TestLinearDegenerate(t *testing.T) {
	// A constant feature makes XtX singular without ridge; ridge handles it.
	X := [][]float64{{1, 5}, {1, 6}, {1, 7}}
	y := []float64{5, 6, 7}
	l := FitLinearFrame(FrameFromRows(X), nil, y, 1e-6)
	if math.Abs(l.Predict([]float64{1, 6.5})-6.5) > 0.01 {
		t.Errorf("predict = %g", l.Predict([]float64{1, 6.5}))
	}
	empty := FitLinearFrame(FrameFromRows(nil), nil, nil, 1)
	if empty.Predict([]float64{1}) != 0 {
		t.Error("empty fit should predict 0")
	}
}

func TestDiscretizer(t *testing.T) {
	d := NewDiscretizer(0, 10, 5)
	if d.Width() != 2 {
		t.Errorf("Width = %g", d.Width())
	}
	mids := d.Midpoints()
	if len(mids) != 5 || mids[0] != 1 || mids[4] != 9 {
		t.Errorf("Midpoints = %v", mids)
	}
	// Degenerate inputs normalize.
	d2 := NewDiscretizer(5, 5, 0)
	if d2.Buckets != 1 || d2.Hi <= d2.Lo {
		t.Errorf("degenerate discretizer = %+v", d2)
	}
	if d.String() == "" {
		t.Error("String should render")
	}
}

func TestEncoder(t *testing.T) {
	rel := relation.NewRelation("T", relation.MustSchema(
		relation.Column{Name: "N", Kind: relation.KindFloat},
		relation.Column{Name: "C", Kind: relation.KindString},
		relation.Column{Name: "B", Kind: relation.KindBool},
	))
	rel.MustInsert(relation.Float(1.5), relation.String("b"), relation.Bool(true))
	rel.MustInsert(relation.Float(2.5), relation.String("a"), relation.Bool(false))
	enc := NewEncoder(rel, []string{"N", "C", "B"})
	if enc.Dim() != 3 {
		t.Errorf("Dim = %d", enc.Dim())
	}
	v0 := make([]float64, enc.Dim())
	enc.EncodeInto(rel, rel.Row(0), v0)
	if v0[0] != 1.5 {
		t.Errorf("numeric passthrough = %g", v0[0])
	}
	// Categorical codes are assigned in sorted order: a=0, b=1.
	if v0[1] != 1 {
		t.Errorf("code for 'b' = %g, want 1", v0[1])
	}
	if v0[2] != 1 {
		t.Errorf("bool true = %g", v0[2])
	}
	if got := enc.EncodeValue(1, relation.String("zzz")); got != -1 {
		t.Errorf("unseen category = %g, want -1", got)
	}
	v1 := make([]float64, enc.Dim())
	enc.EncodeInto(rel, rel.Row(1), v1)
	if v1[1] != 0 {
		t.Errorf("code for 'a' = %g, want 0", v1[1])
	}
}

// Property: freq estimator reproduces exact conditional means on seen data.
func TestFreqExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 50 + rng.Intn(200)
		X := make([][]float64, n)
		y := make([]float64, n)
		sums := map[[2]float64][2]float64{}
		for i := 0; i < n; i++ {
			a, b := float64(rng.Intn(4)), float64(rng.Intn(3))
			X[i] = []float64{a, b}
			y[i] = rng.Float64() * 10
			s := sums[[2]float64{a, b}]
			sums[[2]float64{a, b}] = [2]float64{s[0] + y[i], s[1] + 1}
		}
		fe := FitFreq(X, y)
		for k, s := range sums {
			if math.Abs(fe.Predict([]float64{k[0], k[1]})-s[0]/s[1]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
