package ml

// Parity between the integer-keyed FreqEstimator and the formatted-string
// design it replaced: a reference implementation (the pre-columnar code,
// kept verbatim here) is fit on the same data and compared point for point,
// including protected (keepFirst) features, unseen categories (-1 codes),
// and the wide-key fallback past 64 bits of packed key space.

import (
	"maps"
	"math"
	"strconv"
	"strings"
	"testing"

	"hyper/internal/relation"
	"hyper/internal/shard"
	"hyper/internal/stats"
)

// FitFreq indexes (X, y) and fits y on it.
func FitFreq(X [][]float64, y []float64) *FreqEstimator {
	return FitFreqKeep(X, y, 0)
}

// FitFreqKeep is FitFreq with the first keepFirst features protected from
// backoff.
func FitFreqKeep(X [][]float64, y []float64, keepFirst int) *FreqEstimator {
	return FitFreqFrame(FrameFromRows(X), identityRows(len(X)), y, keepFirst)
}

// refFreq is the string-keyed reference estimator.
type refFreq struct {
	dim       int
	keepFirst int
	exact     map[string]*cell
	backoff   []map[string]*cell
	firstOnly map[string]*cell
	global    cell
}

// cell is one reference cell: its rows' label sum and count.
type cell struct {
	sum float64
	n   int
}

func (c *cell) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return c.sum / float64(c.n)
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
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Predict(%v) = %v, reference %v", label, x, got, want)
		}
		if gs, ws := exactSupport(f, x), ref.supportOf(x); gs != ws {
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
				if f.ix.Len() != len(ref.exact) {
					t.Fatalf("Support = %d, reference %d", f.ix.Len(), len(ref.exact))
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
	if f.ix.Len() != len(ref.exact) {
		t.Fatalf("Support = %d, reference %d", f.ix.Len(), len(ref.exact))
	}
	comparePredictions(t, f, ref, probesFor(rng, X, 6), "wide")
}

// TestFreqIndexHasMatchesEstimator checks the index's membership probe
// against the exact-match counts of an estimator fitted on it, on hits and
// misses.
func TestFreqIndexHasMatchesEstimator(t *testing.T) {
	rng := stats.NewRNG(7)
	X, y := discreteData(rng, 300, 4, 5)
	ix := NewFreqIndex(FrameFromRows(X), identityRows(len(X)), 0)
	f := ix.Fit(y, shard.Plan{}, 1)
	if ix.Len() != f.ix.Len() {
		t.Fatalf("Len = %d, estimator support %d", ix.Len(), f.ix.Len())
	}
	for _, x := range probesFor(rng, X, 4) {
		if has, n := ix.Has(x), exactSupport(f, x); has != (n > 0) {
			t.Fatalf("Has(%v) = %v, SupportOf = %d", x, has, n)
		}
	}
}

// refInternRows is the interning a frame column without a relation column
// had before every column interned through one, kept as the reference
// internThrough is held to: column c interned value by value in row order
// under canonical bits, each row keeping its code. It returns the row codes,
// the dictionary and the cardinality.
func refInternRows(f *Frame, c int) (codes []uint32, d dict, card uint32) {
	codes, d = make([]uint32, f.rows), make(dict)
	for r, v := range f.Col(c) {
		b := canonBits(v)
		code, ok := d[b]
		if !ok {
			code = card
			d[b] = code
			card++
		}
		codes[r] = code
	}
	return codes, d, card
}

// checkInternRows holds every column of the interned frame f to
// refInternRows: each row's code, the dictionary and the cardinality.
func checkInternRows(t *testing.T, f *Frame) {
	t.Helper()
	for c := range f.dim {
		codes, d, card := refInternRows(f, c)
		if f.card[c] != card || !maps.Equal(f.dicts[c], d) {
			t.Fatalf("column %d: card %d, %d dictionary entries; value by value %d, %d", c, f.card[c], len(f.dicts[c]), card, len(d))
		}
		for r, want := range codes {
			if got := f.code(c, r); got != want {
				t.Fatalf("column %d row %d (%v): code %d, value by value %d", c, r, f.Col(c)[r], got, want)
			}
		}
	}
}

// TestFrameCodesNarrowWide: a FrameFromRows column is coded by a relation
// column, one byte per row through its 256th distinct value and four bytes
// from the 257th on, and at either width the frame hands out the codes of
// interning it value by value — so the estimator fitted on it, its support
// counts and the index's membership are those of the reference, packed and
// wide keys alike.
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
			for c, want := range []uint32{256, 257} {
				if fr.card[c] != want || fr.coded[c].Card() != int(want) {
					t.Fatalf("%d-value column: card %d, relation column of %d values", want, fr.card[c], fr.coded[c].Card())
				}
			}
			checkInternRows(t, fr)

			ix := NewFreqIndex(fr, identityRows(n), 1)
			f := ix.Fit(y, shard.Plan{}, 1)
			ref := refFitFreq(X, y, 1)
			if f.ix.Len() != len(ref.exact) {
				t.Fatalf("Support = %d, reference %d", f.ix.Len(), len(ref.exact))
			}
			probes := probesFor(rng, X, dim)
			comparePredictions(t, f, ref, probes, tc.name)
			for _, x := range probes {
				if has, n := ix.Has(x), ref.supportOf(x); has != (n > 0) {
					t.Fatalf("Has(%v) = %v, reference support %d", x, has, n)
				}
			}
		})
	}
}

// TestFrameInternThroughRelation holds a frame interning through its relation
// columns' codes to refInternRows: every row's code, every dictionary and
// every cardinality. Several relation codes may encode to one float, so they
// must share a frame code: NULL, Int 0 and 0.0 of a numeric column encode to
// 0, and Int 2^53 and 2^53+1 to one float. -0.0 beside +0.0 and two NaN
// payloads share a relation code already; a 257th distinct value makes both
// the relation column and the frame codes wide; a string column encodes by
// rank, NULL at -1.
func TestFrameInternThroughRelation(t *testing.T) {
	const n = 700
	rng := stats.NewRNG(3)
	specials := []relation.Value{
		relation.Int(5), relation.Null, relation.Int(0),
		relation.Float(math.Copysign(0, -1)), relation.Float(0),
		relation.Int(1 << 53), relation.Int(1<<53 + 1),
		relation.Float(math.Float64frombits(0x7ff8000000000001)),
		relation.Float(math.Float64frombits(0x7ff80000000abcde)),
		relation.Float(2.5),
	}
	strs := []relation.Value{relation.String("b"), relation.Null, relation.String("a"), relation.String("c")}
	vals := make([][]relation.Value, 3)
	for r := range n {
		vals[0] = append(vals[0], specials[rng.Intn(len(specials))])
		vals[1] = append(vals[1], relation.Int(int64(r*7%300))) // 300 values, the 257th at row 256
		vals[2] = append(vals[2], strs[rng.Intn(len(strs))])
	}
	coded := make([]*relation.CodedColumn, len(vals))
	cols := make([][]float64, len(vals))
	for c, v := range vals {
		coded[c] = relation.ColumnOf(v)
		cols[c] = coded[c].Encoded()
	}
	via := FrameOfColumns(cols, coded, 2)
	via.Intern()
	if len(coded[0].Values) <= int(via.card[0]) {
		t.Fatalf("no two relation codes share a frame code: %d relation codes, %d frame codes", len(coded[0].Values), via.card[0])
	}
	if via.card[1] != 300 || len(via.remap[1]) != 300 {
		t.Fatalf("wide column: %d frame codes, %d relation codes", via.card[1], len(via.remap[1]))
	}
	checkInternRows(t, via)
}

// TestFrameInternGroupMeans holds ψ-like columns — per row, a mean over the
// rows sharing the row's group — interned through their GroupBy column to
// refInternRows, as the engine's estimator sets intern them. In one column
// every group's mean is chosen: groups share means, so several relation
// codes take one frame code, and some means are NaN (with different
// payloads), -0 or +0. The other sums fractional values per group in row
// order, as the engine does. Both hold more than 256 distinct means over 700
// groups, so relation codes and frame codes are past a byte.
func TestFrameInternGroupMeans(t *testing.T) {
	const groups, n = 700, 6000
	rng := stats.NewRNG(5)
	chosen := make([]float64, groups)
	for g := range chosen {
		switch g % 40 {
		case 0:
			chosen[g] = math.Float64frombits(0x7ff8000000000001 + uint64(g))
		case 1:
			chosen[g] = math.Copysign(0, -1)
		case 2:
			chosen[g] = 0
		default:
			chosen[g] = float64(g%311) / 4
		}
	}
	keys, group := make([]relation.Value, n), make([]int, n)
	vals := make([]float64, n)
	for r := range n {
		group[r] = rng.Intn(groups)
		keys[r] = relation.Int(int64(group[r]*7919%100003 - 5000))
		vals[r] = float64(rng.Intn(1000)) / 8
	}
	type acc struct {
		sum float64
		n   int
	}
	sums := make([]acc, groups)
	for r, g := range group {
		sums[g].sum += vals[r]
		sums[g].n++
	}
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for r, g := range group {
		cols[0][r] = chosen[g]
		cols[1][r] = sums[g].sum / float64(sums[g].n)
	}
	by := relation.ColumnOf(keys)
	f := FrameOfColumns(cols, []*relation.CodedColumn{by, by}, 2)
	f.Intern()
	if by.Card() <= 256 || f.card[0] <= 256 || f.card[1] <= 256 || int(f.card[0]) >= by.Card() {
		t.Fatalf("%d groups; %d and %d frame codes", by.Card(), f.card[0], f.card[1])
	}
	checkInternRows(t, f)
}
