package ml

// Linear is a ridge-regularized least-squares linear regressor. The how-to
// engine estimates candidate-update effects with it: Section 4.3 of the
// paper expresses the IP objective through a *linear* regression function φ,
// which captures weak monotone effects of continuous attributes that
// tree-based estimators smooth away.
type Linear struct {
	w []float64 // weights per feature
	b float64   // intercept
}

// FitLinearFrame solves (XᵀX + λI) w = Xᵀy with an intercept column (the
// intercept is not regularized) over frame rows. sel maps training positions
// to frame rows (nil for identity); y is parallel to positions. It uses dense
// normal equations with Gaussian elimination, which is exact and fast for
// the small feature counts HypeR conditions on.
func FitLinearFrame(fr *Frame, sel []int, y []float64, ridge float64) *Linear {
	if len(y) == 0 {
		return &Linear{}
	}
	d := fr.Dim()
	m := d + 1 // last column is the intercept
	// Normal matrix A (m x m) and rhs v.
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	v := make([]float64, m)
	for pos := range y {
		r := pos
		if sel != nil {
			r = sel[pos]
		}
		for i := 0; i < d; i++ {
			xi := fr.cols[i][r]
			for j := i; j < d; j++ {
				a[i][j] += xi * fr.cols[j][r]
			}
			a[i][m-1] += xi
			v[i] += xi * y[pos]
		}
		a[m-1][m-1]++
		v[m-1] += y[pos]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}
	for i := 0; i < d; i++ {
		a[i][i] += ridge
	}
	w := solveLinear(a, v)
	if w == nil {
		// Degenerate system: fall back to predicting the mean.
		mean := 0.0
		for _, yy := range y {
			mean += yy
		}
		if len(y) > 0 {
			mean /= float64(len(y))
		}
		return &Linear{w: make([]float64, d), b: mean}
	}
	return &Linear{w: w[:d], b: w[d]}
}

// solveLinear solves a·x = v by Gaussian elimination with partial pivoting;
// nil on a singular system.
func solveLinear(a [][]float64, v []float64) []float64 {
	m := len(a)
	// Work on copies.
	mat := make([][]float64, m)
	for i := range mat {
		mat[i] = append([]float64(nil), a[i]...)
	}
	rhs := append([]float64(nil), v...)
	for col := 0; col < m; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < m; r++ {
			if absf(mat[r][col]) > absf(mat[p][col]) {
				p = r
			}
		}
		if absf(mat[p][col]) < 1e-12 {
			return nil
		}
		mat[col], mat[p] = mat[p], mat[col]
		rhs[col], rhs[p] = rhs[p], rhs[col]
		inv := 1 / mat[col][col]
		for r := col + 1; r < m; r++ {
			f := mat[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < m; c++ {
				mat[r][c] -= f * mat[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < m; j++ {
			s -= mat[i][j] * x[j]
		}
		x[i] = s / mat[i][i]
	}
	return x
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Predict returns w·x + b.
func (l *Linear) Predict(x []float64) float64 {
	s := l.b
	for i, w := range l.w {
		if i < len(x) {
			s += w * x[i]
		}
	}
	return s
}
