package stats

import "math"

// Dist is a one-dimensional distribution that can be sampled with an RNG.
type Dist interface {
	Sample(r *RNG) float64
}

// Normal is a Gaussian distribution.
type Normal struct {
	Mu    float64
	Sigma float64
}

// Sample draws one Gaussian variate.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Uniform is a continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo float64
	Hi float64
}

// Sample draws one uniform variate.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Bernoulli yields 1 with probability P, else 0.
type Bernoulli struct{ P float64 }

// Sample draws a 0/1 variate.
func (b Bernoulli) Sample(r *RNG) float64 {
	if r.Float64() < b.P {
		return 1
	}
	return 0
}

// Categorical draws index i with probability Weights[i]/sum(Weights).
type Categorical struct{ Weights []float64 }

// Sample draws a category index as a float64.
func (c Categorical) Sample(r *RNG) float64 { return float64(r.Choice(c.Weights)) }

// Exponential has rate Lambda.
type Exponential struct{ Lambda float64 }

// Sample draws one exponential variate.
func (e Exponential) Sample(r *RNG) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / e.Lambda
}
