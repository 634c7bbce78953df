package ml

import "fmt"

// Discretizer maps a continuous range onto equi-width buckets, the
// bucketization HypeR applies to continuous attributes before building the
// how-to integer program (Section 4.3, Figure 9).
type Discretizer struct {
	Lo, Hi  float64
	Buckets int
}

// NewDiscretizer returns a discretizer over [lo, hi] with n buckets. It
// normalizes degenerate inputs (n<1 becomes 1; hi<=lo widens by 1).
func NewDiscretizer(lo, hi float64, n int) *Discretizer {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Discretizer{Lo: lo, Hi: hi, Buckets: n}
}

// Width returns the bucket width.
func (d *Discretizer) Width() float64 { return (d.Hi - d.Lo) / float64(d.Buckets) }

// Midpoint returns the representative (center) value of bucket i.
func (d *Discretizer) Midpoint(i int) float64 {
	return d.Lo + d.Width()*(float64(i)+0.5)
}

// Midpoints returns all bucket centers in order; these are the candidate
// update values the how-to IP chooses among.
func (d *Discretizer) Midpoints() []float64 {
	out := make([]float64, d.Buckets)
	for i := range out {
		out[i] = d.Midpoint(i)
	}
	return out
}

// String describes the discretizer.
func (d *Discretizer) String() string {
	return fmt.Sprintf("discretize[%g,%g] into %d buckets (width %g)", d.Lo, d.Hi, d.Buckets, d.Width())
}
