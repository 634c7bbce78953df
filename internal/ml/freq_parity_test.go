package ml

// Parity between the integer-keyed FreqEstimator and the formatted-string
// design it replaced: a reference implementation (the pre-columnar code,
// kept verbatim here) is fit on the same data and compared point for point,
// including protected (keepFirst) features, unseen categories (-1 codes),
// and the wide-key fallback past 64 bits of packed key space.

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"hyper/internal/stats"
)

// refFreq is the string-keyed reference estimator.
type refFreq struct {
	dim       int
	keepFirst int
	exact     map[string]*cell
	backoff   []map[string]*cell
	firstOnly map[string]*cell
	global    cell
}

func refFkey(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 12, 64)
}

func refFitFreq(X [][]float64, y []float64, keepFirst int) *refFreq {
	dim := 0
	if len(X) > 0 {
		dim = len(X[0])
	}
	if keepFirst > dim {
		keepFirst = dim
	}
	f := &refFreq{
		dim:       dim,
		keepFirst: keepFirst,
		exact:     make(map[string]*cell, len(X)),
		backoff:   make([]map[string]*cell, dim),
		firstOnly: make(map[string]*cell),
	}
	for i := keepFirst; i < dim; i++ {
		f.backoff[i] = make(map[string]*cell)
	}
	add := func(m map[string]*cell, k string, yy float64) {
		c := m[k]
		if c == nil {
			c = &cell{}
			m[k] = c
		}
		c.sum += yy
		c.n++
	}
	kb := make([]string, dim)
	for r, x := range X {
		for i, v := range x {
			kb[i] = refFkey(v)
		}
		add(f.exact, strings.Join(kb, ","), y[r])
		for i := keepFirst; i < dim; i++ {
			save := kb[i]
			kb[i] = "*"
			add(f.backoff[i], strings.Join(kb, ","), y[r])
			kb[i] = save
		}
		if keepFirst > 0 {
			add(f.firstOnly, strings.Join(kb[:keepFirst], ","), y[r])
		}
		f.global.sum += y[r]
		f.global.n++
	}
	return f
}

func (f *refFreq) predict(x []float64) float64 {
	kb := make([]string, f.dim)
	for i, v := range x {
		kb[i] = refFkey(v)
	}
	if c, ok := f.exact[strings.Join(kb, ",")]; ok {
		return c.mean()
	}
	var sum float64
	var n int
	for i := f.keepFirst; i < f.dim; i++ {
		save := kb[i]
		kb[i] = "*"
		if c, ok := f.backoff[i][strings.Join(kb, ",")]; ok {
			sum += c.mean()
			n++
		}
		kb[i] = save
	}
	if n > 0 {
		return sum / float64(n)
	}
	if f.keepFirst > 0 {
		if c, ok := f.firstOnly[strings.Join(kb[:f.keepFirst], ",")]; ok {
			return c.mean()
		}
	}
	return f.global.mean()
}

func (f *refFreq) supportOf(x []float64) int {
	kb := make([]string, f.dim)
	for i, v := range x {
		kb[i] = refFkey(v)
	}
	if c, ok := f.exact[strings.Join(kb, ",")]; ok {
		return c.n
	}
	return 0
}

// discreteData draws n rows of dim features with the given per-column
// domain size.
func discreteData(rng *stats.RNG, n, dim, domain int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for r := range X {
		X[r] = make([]float64, dim)
		for c := range X[r] {
			X[r][c] = float64(rng.Intn(domain))
		}
		y[r] = float64(rng.Intn(5))
	}
	return X, y
}

func comparePredictions(t *testing.T, f *FreqEstimator, ref *refFreq, probes [][]float64, label string) {
	t.Helper()
	for _, x := range probes {
		got, want := f.Predict(x), ref.predict(x)
		if got != want {
			t.Fatalf("%s: Predict(%v) = %v, reference %v", label, x, got, want)
		}
		if gs, ws := f.SupportOf(x), ref.supportOf(x); gs != ws {
			t.Fatalf("%s: SupportOf(%v) = %d, reference %d", label, x, gs, ws)
		}
	}
}

// probesFor builds prediction points covering exact hits, single-feature
// misses (forcing backoff), unseen categories (the encoder's -1 code), and
// fully out-of-domain rows (global fallback).
func probesFor(rng *stats.RNG, X [][]float64, dim int) [][]float64 {
	var probes [][]float64
	for i := 0; i < 50 && i < len(X); i++ {
		probes = append(probes, X[rng.Intn(len(X))]) // seen rows
	}
	for i := 0; i < 50 && len(X) > 0; i++ {
		x := append([]float64(nil), X[rng.Intn(len(X))]...)
		x[rng.Intn(dim)] = -1 // unseen category at one position
		probes = append(probes, x)
		z := append([]float64(nil), x...)
		z[rng.Intn(dim)] = 9999 // far out of domain
		probes = append(probes, z)
	}
	allMiss := make([]float64, dim)
	for c := range allMiss {
		allMiss[c] = -7
	}
	probes = append(probes, allMiss)
	return probes
}

func TestFreqParityWithStringKeys(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n, dim, domain   int
		keepFirst, seeds int
	}{
		{"packed-no-keep", 400, 4, 5, 0, 3},
		{"packed-keep-2", 400, 5, 4, 2, 3},
		{"packed-keep-all", 200, 3, 4, 3, 2},
		{"sparse-support", 80, 6, 8, 1, 3}, // most combinations unseen
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(tc.seeds); seed++ {
				rng := stats.NewRNG(seed)
				X, y := discreteData(rng, tc.n, tc.dim, tc.domain)
				f := FitFreqKeep(X, y, tc.keepFirst)
				ref := refFitFreq(X, y, tc.keepFirst)
				if f.Support() != len(ref.exact) {
					t.Fatalf("Support = %d, reference %d", f.Support(), len(ref.exact))
				}
				comparePredictions(t, f, ref, probesFor(rng, X, tc.dim), tc.name)
			}
		})
	}
}

// TestFreqParityWideKeys forces the packed-key overflow (six columns of
// ~2k distinct values each exceed 64 bits of key space) so the wide
// byte-string fallback is exercised against the reference.
func TestFreqParityWideKeys(t *testing.T) {
	rng := stats.NewRNG(42)
	X, y := discreteData(rng, 12000, 6, 2000)
	f := FitFreqKeep(X, y, 1)
	ref := refFitFreq(X, y, 1)
	if f.Support() != len(ref.exact) {
		t.Fatalf("Support = %d, reference %d", f.Support(), len(ref.exact))
	}
	comparePredictions(t, f, ref, probesFor(rng, X, 6), "wide")
}

// TestSupportSetMatchesEstimator checks the detached support index against
// the estimator's exact-match counts on hits and misses.
func TestSupportSetMatchesEstimator(t *testing.T) {
	rng := stats.NewRNG(7)
	X, y := discreteData(rng, 300, 4, 5)
	fr := FrameFromRows(X)
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	set := NewSupportSet(fr, rows)
	f := FitFreqFrame(fr, rows, y, 0)
	if set.Len() != f.Support() {
		t.Fatalf("SupportSet.Len = %d, estimator support %d", set.Len(), f.Support())
	}
	for _, x := range probesFor(rng, X, 4) {
		if has, n := set.Has(x), f.SupportOf(x); has != (n > 0) {
			t.Fatalf("Has(%v) = %v, SupportOf = %d", x, has, n)
		}
	}
}

// refInternFlat is the frame's code layout before codes narrowed to a byte:
// one flat []uint32, codes[c*rows+r], assigned in first-seen row order per
// column. Kept here as the reference the per-column narrow/wide columns are
// held to.
func refInternFlat(f *Frame) (codes []uint32, card []uint32) {
	codes = make([]uint32, f.rows*f.dim)
	card = make([]uint32, f.dim)
	for c := 0; c < f.dim; c++ {
		d := make(dict)
		for r, v := range f.Col(c) {
			b := canonBits(v)
			code, ok := d[b]
			if !ok {
				code = card[c]
				d[b] = code
				card[c]++
			}
			codes[c*f.rows+r] = code
		}
	}
	return codes, card
}

// TestFrameCodesNarrowWide: a column stays one byte per row through its
// 256th distinct value and widens at the 257th, and at either width the
// frame hands out the codes of the flat layout — so the estimator fitted on
// it, its support counts and the support set are those of the reference,
// packed and wide keys alike.
func TestFrameCodesNarrowWide(t *testing.T) {
	for _, tc := range []struct {
		name string
		pad  int // further 257-value columns, to overflow the packed key
	}{{"packed", 0}, {"wide-keys", 7}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRNG(11)
			const n = 3000
			dim := 3 + tc.pad
			X := make([][]float64, n)
			y := make([]float64, n)
			for r := range X {
				// Columns 0 and 1 take their last value late, so the widening
				// copies a long narrow prefix.
				X[r] = make([]float64, dim)
				X[r][0] = float64(rng.Intn(255))
				X[r][1] = float64(rng.Intn(256))
				X[r][2] = float64(rng.Intn(3))
				for c := 3; c < dim; c++ {
					X[r][c] = float64(r % 257)
				}
				y[r] = float64(rng.Intn(5))
			}
			X[n-2][0], X[n-2][1] = 255, 256 // the 256th and the 257th value
			X[n-1][0], X[n-1][1] = 255, 256
			fr := FrameFromRows(X)
			fr.Intern()
			if fr.card[0] != 256 || fr.codes[0].narrow == nil || fr.codes[0].wide != nil {
				t.Fatalf("256-value column: card %d, narrow %v, wide %v", fr.card[0], fr.codes[0].narrow != nil, fr.codes[0].wide != nil)
			}
			if fr.card[1] != 257 || fr.codes[1].narrow != nil || fr.codes[1].wide == nil {
				t.Fatalf("257-value column: card %d, narrow %v, wide %v", fr.card[1], fr.codes[1].narrow != nil, fr.codes[1].wide != nil)
			}
			flat, card := refInternFlat(fr)
			got := make([]uint32, dim)
			for r := 0; r < n; r++ {
				fr.codeRow(r, got)
				for c := range got {
					if got[c] != flat[c*n+r] {
						t.Fatalf("row %d column %d: code %d, flat layout %d", r, c, got[c], flat[c*n+r])
					}
				}
			}
			for c := range card {
				if fr.card[c] != card[c] {
					t.Fatalf("column %d: card %d, flat layout %d", c, fr.card[c], card[c])
				}
			}

			rows := make([]int, n)
			for i := range rows {
				rows[i] = i
			}
			f := FitFreqFrame(fr, rows, y, 1)
			ref := refFitFreq(X, y, 1)
			if f.Support() != len(ref.exact) {
				t.Fatalf("Support = %d, reference %d", f.Support(), len(ref.exact))
			}
			probes := probesFor(rng, X, dim)
			comparePredictions(t, f, ref, probes, tc.name)
			set := NewSupportSet(fr, rows)
			if set.Len() != len(ref.exact) {
				t.Fatalf("SupportSet.Len = %d, reference %d", set.Len(), len(ref.exact))
			}
			for _, x := range probes {
				if has, n := set.Has(x), ref.supportOf(x); has != (n > 0) {
					t.Fatalf("Has(%v) = %v, reference support %d", x, has, n)
				}
			}
		})
	}
}
