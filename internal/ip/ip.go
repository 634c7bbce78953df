// Package ip implements a 0/1 integer-program model and an exact
// branch-and-bound solver bounded by LP relaxations (internal/lp). HypeR's
// how-to engine compiles each how-to query into such a program (Section 4.3,
// Equations 7-9): one binary indicator per candidate update, SOS-1 rows per
// attribute, and linear side constraints from the LIMIT operator.
package ip

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hyper/internal/lp"
	"hyper/internal/obs"
)

// Model is a 0/1 integer program: maximize Obj·x subject to the linear
// constraints, x_i in {0,1}.
type Model struct {
	names []string
	obj   []float64
	rows  [][]float64
	rhs   []float64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a binary variable with the given objective coefficient and
// returns its index.
func (m *Model) AddVar(name string, objCoef float64) int {
	m.names = append(m.names, name)
	m.obj = append(m.obj, objCoef)
	for i := range m.rows {
		m.rows[i] = append(m.rows[i], 0)
	}
	return len(m.names) - 1
}

// AddLE adds a constraint sum(coef_i * x_idx_i) <= rhs.
func (m *Model) AddLE(idx []int, coef []float64, rhs float64) error {
	if len(idx) != len(coef) {
		return fmt.Errorf("ip: %d indexes but %d coefficients", len(idx), len(coef))
	}
	row := make([]float64, len(m.names))
	for k, i := range idx {
		if i < 0 || i >= len(m.names) {
			return fmt.Errorf("ip: variable index %d out of range", i)
		}
		row[i] += coef[k]
	}
	m.rows = append(m.rows, row)
	m.rhs = append(m.rhs, rhs)
	return nil
}

// AddGE adds sum(coef_i * x_i) >= rhs (stored as the negated <= row).
func (m *Model) AddGE(idx []int, coef []float64, rhs float64) error {
	neg := make([]float64, len(coef))
	for i, c := range coef {
		neg[i] = -c
	}
	return m.AddLE(idx, neg, -rhs)
}

// AddAtMostOne adds the SOS-1 row sum(x_idx) <= 1 used for "pick at most one
// update per attribute".
func (m *Model) AddAtMostOne(idx []int) error {
	coef := make([]float64, len(idx))
	for i := range coef {
		coef[i] = 1
	}
	return m.AddLE(idx, coef, 1)
}

// Solution is the result of solving a model.
type Solution struct {
	Status lp.Status
	X      []bool
	Obj    float64
	Nodes  int // branch-and-bound nodes explored
}

// Selected returns the indexes of variables set to 1.
func (s *Solution) Selected() []int {
	var out []int
	for i, v := range s.X {
		if v {
			out = append(out, i)
		}
	}
	return out
}

// Solve runs exact branch and bound with LP-relaxation bounds and returns
// the optimal 0/1 assignment. The relaxation adds x_i <= 1 rows; branching
// fixes the most fractional variable first (depth-first, 1-branch first so
// good incumbents appear early).
func (m *Model) Solve() (*Solution, error) {
	return m.SolveContext(context.Background())
}

// SolveContext is Solve with cancellation: ctx is checked every 64
// branch-and-bound nodes, so a cancelled or deadline-expired context aborts
// the search mid-solve with ctx.Err() instead of exploring the remaining
// tree.
func (m *Model) SolveContext(ctx context.Context) (*Solution, error) {
	n := len(m.names)
	_, sp := obs.Start(ctx, "ip_solve")
	sp.Set("vars", n)
	defer sp.End()
	if n == 0 {
		return &Solution{Status: lp.Optimal}, nil
	}
	best := &Solution{Status: lp.Infeasible, Obj: math.Inf(-1)}
	fixed := make([]int8, n) // -1 free, 0 fixed zero, 1 fixed one
	for i := range fixed {
		fixed[i] = -1
	}
	nodes := 0
	var rec func(fixed []int8) error
	rec = func(fixed []int8) error {
		nodes++
		if nodes > 200000 {
			return fmt.Errorf("ip: node limit exceeded (%d)", nodes)
		}
		if nodes%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rel, err := m.relax(fixed)
		if err != nil {
			return err
		}
		sol, err := lp.Solve(rel)
		if err != nil {
			return err
		}
		if sol.Status == lp.Infeasible {
			return nil
		}
		if sol.Status == lp.Unbounded {
			// Binary variables bound every direction; unbounded relaxation
			// means the model is malformed.
			return fmt.Errorf("ip: relaxation unbounded")
		}
		// Map relaxation solution back to full variable space.
		x := make([]float64, n)
		j := 0
		bound := 0.0
		for i := 0; i < n; i++ {
			switch fixed[i] {
			case 1:
				x[i] = 1
				bound += m.obj[i]
			case 0:
				x[i] = 0
			default:
				x[i] = sol.X[j]
				bound += m.obj[i] * sol.X[j]
				j++
			}
		}
		if bound <= best.Obj+1e-9 {
			return nil // prune
		}
		// Find most fractional free variable.
		branch := -1
		bestFrac := -1.0
		for i := 0; i < n; i++ {
			if fixed[i] != -1 {
				continue
			}
			f := math.Abs(x[i] - math.Round(x[i]))
			if f > 1e-6 && f > bestFrac {
				bestFrac = f
				branch = i
			}
		}
		if branch < 0 {
			// Integral: candidate incumbent (verify feasibility exactly).
			bx := make([]bool, n)
			obj := 0.0
			for i := 0; i < n; i++ {
				bx[i] = x[i] > 0.5
				if bx[i] {
					obj += m.obj[i]
				}
			}
			if m.feasible(bx) && obj > best.Obj {
				best = &Solution{Status: lp.Optimal, X: bx, Obj: obj}
			}
			return nil
		}
		for _, v := range []int8{1, 0} {
			fixed[branch] = v
			if err := rec(fixed); err != nil {
				return err
			}
		}
		fixed[branch] = -1
		return nil
	}
	if err := rec(fixed); err != nil {
		return nil, err
	}
	sp.Set("nodes", nodes)
	obs.MeterFromContext(ctx).Charge(obs.MeterJSON{IPNodes: uint64(nodes)})
	best.Nodes = nodes
	if best.Status == lp.Infeasible {
		return best, nil
	}
	return best, nil
}

// relax builds the LP relaxation over the free variables given the current
// fixing, moving fixed-one contributions into the rhs.
func (m *Model) relax(fixed []int8) (*lp.Problem, error) {
	var free []int
	for i, f := range fixed {
		if f == -1 {
			free = append(free, i)
		}
	}
	nf := len(free)
	p := &lp.Problem{C: make([]float64, nf)}
	for j, i := range free {
		p.C[j] = m.obj[i]
	}
	for r, row := range m.rows {
		rhs := m.rhs[r]
		newRow := make([]float64, nf)
		any := false
		for j, i := range free {
			newRow[j] = row[i]
			if row[i] != 0 {
				any = true
			}
		}
		for i, f := range fixed {
			if f == 1 {
				rhs -= row[i]
			}
		}
		if !any {
			if rhs < -1e-9 {
				// Constraint already violated by the fixing.
				return &lp.Problem{C: p.C, A: [][]float64{make([]float64, nf)}, B: []float64{-1}}, nil
			}
			continue
		}
		p.A = append(p.A, newRow)
		p.B = append(p.B, rhs)
	}
	// 0/1 box: x_j <= 1 rows (x >= 0 is implicit in the simplex form).
	for j := 0; j < nf; j++ {
		row := make([]float64, nf)
		row[j] = 1
		p.A = append(p.A, row)
		p.B = append(p.B, 1)
	}
	return p, nil
}

// feasible checks an integral assignment against all constraints exactly.
func (m *Model) feasible(x []bool) bool {
	for r, row := range m.rows {
		s := 0.0
		for i, v := range x {
			if v {
				s += row[i]
			}
		}
		if s > m.rhs[r]+1e-7 {
			return false
		}
	}
	return true
}

// EnumerateFeasible exhaustively enumerates feasible assignments (used by the
// Opt-HowTo baseline and by tests on small models); it returns the optimum.
// It is exponential in NumVars and refuses models with more than 24
// variables.
func (m *Model) EnumerateFeasible() (*Solution, error) {
	n := len(m.names)
	if n > 24 {
		return nil, fmt.Errorf("ip: enumeration limited to 24 variables, have %d", n)
	}
	best := &Solution{Status: lp.Infeasible, Obj: math.Inf(-1)}
	x := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		obj := 0.0
		for i := 0; i < n; i++ {
			x[i] = mask&(1<<i) != 0
			if x[i] {
				obj += m.obj[i]
			}
		}
		if obj > best.Obj && m.feasible(x) {
			best = &Solution{Status: lp.Optimal, X: append([]bool(nil), x...), Obj: obj}
		}
	}
	return best, nil
}

// String renders the model for debugging.
func (m *Model) String() string {
	s := "maximize"
	order := make([]int, len(m.names))
	for i := range order {
		order[i] = i
	}
	sort.Ints(order)
	for _, i := range order {
		s += fmt.Sprintf(" %+g*%s", m.obj[i], m.names[i])
	}
	s += "\n"
	for r, row := range m.rows {
		s += "  s.t."
		for i, c := range row {
			if c != 0 {
				s += fmt.Sprintf(" %+g*%s", c, m.names[i])
			}
		}
		s += fmt.Sprintf(" <= %g\n", m.rhs[r])
	}
	return s
}
