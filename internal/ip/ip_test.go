package ip

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hyper/internal/lp"
	"hyper/internal/stats"
)

func TestKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: weights {2,3,4,5}, values {3,4,5,6}, cap 5.
	// Optimum: items 0 and 1 (weight 5, value 7).
	m := NewModel()
	weights := []float64{2, 3, 4, 5}
	values := []float64{3, 4, 5, 6}
	idx := make([]int, 4)
	for i := range weights {
		idx[i] = m.AddVar("x", values[i])
	}
	if err := m.AddLE(idx, weights, 5); err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal || math.Abs(s.Obj-7) > 1e-9 {
		t.Fatalf("knapsack: %v obj=%g sel=%v", s.Status, s.Obj, s.Selected())
	}
	if !s.X[0] || !s.X[1] || s.X[2] || s.X[3] {
		t.Errorf("selection = %v", s.X)
	}
}

func TestAtMostOneGroups(t *testing.T) {
	// Two SOS-1 groups plus a global budget of 1: pick the single best var.
	m := NewModel()
	g1 := []int{m.AddVar("a1", 2), m.AddVar("a2", 5)}
	g2 := []int{m.AddVar("b1", 4), m.AddVar("b2", 3)}
	if err := m.AddAtMostOne(g1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddAtMostOne(g2); err != nil {
		t.Fatal(err)
	}
	all := append(append([]int{}, g1...), g2...)
	ones := []float64{1, 1, 1, 1}
	if err := m.AddLE(all, ones, 1); err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Obj-5) > 1e-9 || !s.X[1] {
		t.Errorf("obj=%g x=%v", s.Obj, s.X)
	}
}

func TestNegativeObjectivePrefersEmpty(t *testing.T) {
	m := NewModel()
	m.AddVar("bad", -3)
	m.AddVar("worse", -5)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Obj != 0 || len(s.Selected()) != 0 {
		t.Errorf("empty selection expected, got %v obj=%g", s.Selected(), s.Obj)
	}
}

func TestInfeasibleModel(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 1)
	// x >= 1 and x <= 0 simultaneously.
	if err := m.AddGE([]int{x}, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddLE([]int{x}, []float64{1}, 0); err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// Exactly two of three variables: a <= and a >= row.
	m := NewModel()
	idx := []int{m.AddVar("a", 1), m.AddVar("b", 2), m.AddVar("c", 3)}
	if err := m.AddLE(idx, []float64{1, 1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddGE(idx, []float64{1, 1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Obj-5) > 1e-9 || len(s.Selected()) != 2 {
		t.Errorf("obj=%g selected=%v", s.Obj, s.Selected())
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel()
	m.AddVar("x", 1)
	if err := m.AddLE([]int{0}, []float64{1, 2}, 1); err == nil {
		t.Error("coef/idx mismatch should fail")
	}
	if err := m.AddLE([]int{5}, []float64{1}, 1); err == nil {
		t.Error("out-of-range index should fail")
	}
	if m.String() == "" {
		t.Error("String should render")
	}
}

// Property: branch-and-bound equals exhaustive enumeration on random small
// models.
func TestBranchAndBoundMatchesEnumerationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(8)
		m := NewModel()
		for i := 0; i < n; i++ {
			m.AddVar("v", rng.Float64()*10-3)
		}
		// A few random <= constraints.
		rows := 1 + rng.Intn(4)
		for r := 0; r < rows; r++ {
			idx := []int{}
			coef := []float64{}
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.6 {
					idx = append(idx, i)
					coef = append(coef, rng.Float64()*3)
				}
			}
			if len(idx) == 0 {
				continue
			}
			if err := m.AddLE(idx, coef, rng.Float64()*4); err != nil {
				return false
			}
		}
		bb, err := m.Solve()
		if err != nil {
			return false
		}
		enum, err := m.EnumerateFeasible()
		if err != nil {
			return false
		}
		if bb.Status != enum.Status {
			return false
		}
		if bb.Status == lp.Optimal && math.Abs(bb.Obj-enum.Obj) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEnumerationLimit(t *testing.T) {
	m := NewModel()
	for i := 0; i < 25; i++ {
		m.AddVar("v", 1)
	}
	if _, err := m.EnumerateFeasible(); err == nil {
		t.Error("enumeration beyond 24 vars should refuse")
	}
}

func TestSolveContextCancelled(t *testing.T) {
	// A model big enough to take more than one 64-node check interval.
	m := NewModel()
	n := 14
	for i := 0; i < n; i++ {
		m.AddVar(fmt.Sprintf("x%d", i), float64(1+i%3)+0.5)
	}
	for i := 0; i+1 < n; i += 2 {
		if err := m.AddAtMostOne([]int{i, i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	idx := make([]int, n)
	coef := make([]float64, n)
	for i := range idx {
		idx[i] = i
		coef[i] = float64(1 + i%4)
	}
	if err := m.AddLE(idx, coef, float64(n)/1.5); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.SolveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same model still solves under a live context.
	if _, err := m.Solve(); err != nil {
		t.Fatalf("solve after cancelled attempt: %v", err)
	}
}
