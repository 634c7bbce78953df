// Package stats provides the deterministic statistics substrate used across
// HypeR: a splittable PCG-style random number generator, common
// distributions and streaming summaries. Every stochastic
// component in the repository draws from this package so that experiments
// are exactly reproducible from a seed.
package stats

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a deterministic 64-bit PCG-XSH-RR style generator. The zero value
// is not usable; construct with NewRNG.
type RNG struct {
	state uint64
	inc   uint64
	// spare holds a cached second normal variate from Box-Muller.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed. Distinct seeds yield
// independent-looking streams.
func NewRNG(seed int64) *RNG {
	r := &RNG{inc: 0xda3e39cb94b95bdb}
	r.state = 0
	r.next()
	r.state += uint64(seed) ^ 0x853c49e6748fea9b
	r.next()
	return r
}

// Split derives a new independent generator from r; useful for giving each
// tuple or each tree its own stream without coupling draw counts.
func (r *RNG) Split() *RNG {
	s := int64(r.next())
	return NewRNG(s)
}

// next32 advances the state and emits one PCG-XSH-RR 32-bit output.
func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + (r.inc | 1)
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

func (r *RNG) next() uint64 {
	return uint64(r.next32())<<32 | uint64(r.next32())
}

// Uint64 returns a uniformly random 64-bit value.
func (r *RNG) Uint64() uint64 { return r.next() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s == 0 || s >= 1 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return u * m
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// SampleIndexes returns k distinct indexes drawn without replacement from
// [0, n), in random order. If k >= n it returns a permutation of [0, n).
func (r *RNG) SampleIndexes(n, k int) []int { return r.SampleIndexesInto(nil, n, k) }

// SampleIndexesInto is SampleIndexes appending to dst[:0], so a caller that
// samples repeatedly (a tree's per-node feature subset) allocates nothing
// once dst has capacity k. The draws do not depend on dst.
func (r *RNG) SampleIndexesInto(dst []int, n, k int) []int {
	out := dst[:0]
	if cap(out) < min(k, n) {
		out = make([]int, 0, min(k, n))
	}
	if k >= n {
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
	} else {
		// Floyd's algorithm. Membership among the indexes chosen so far is
		// a scan while they are few and a set past that.
		var chosen map[int]struct{}
		if k > 16 {
			chosen = make(map[int]struct{}, k)
		}
		for j := n - k; j < n; j++ {
			t := r.Intn(j + 1)
			dup := false
			if chosen == nil {
				dup = slices.Contains(out, t)
			} else {
				_, dup = chosen[t]
			}
			if dup {
				t = j
			}
			if chosen != nil {
				chosen[t] = struct{}{}
			}
			out = append(out, t)
		}
	}
	// Shuffle for random order.
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Bootstrap returns n indexes drawn uniformly with replacement from [0, n).
func (r *RNG) Bootstrap(n int) []int { return r.BootstrapInto(nil, n) }

// BootstrapInto is Bootstrap writing into dst[:n], so a caller that draws
// one sample after another (a forest worker, one per tree) allocates only
// when dst lacks capacity n. The draws do not depend on dst.
func (r *RNG) BootstrapInto(dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	out := dst[:n]
	for i := range out {
		out[i] = r.Intn(n)
	}
	return out
}

// Choice returns a random element index weighted by the non-negative weights.
// A zero total weight degenerates to uniform.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
