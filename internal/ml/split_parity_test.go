package ml

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/sqlmini"
	"hyper/internal/stats"
)

// Column and label generators of the split-search parity cases. The table
// names them; the fuzzer picks them from its input, so it can produce every
// table row and the combinations the table does not list.
const (
	colUniform   = iota // continuous, all distinct: the subsample path past 33 rows
	colSmallInt         // five distinct values: every midpoint is a candidate
	colNaN              // continuous with NaN rows
	colInf              // a few finite values between -Inf and +Inf
	colInfOnly          // -Inf and +Inf only (their midpoint is NaN), plus NaN rows
	colConstant         // no threshold at all
	colAdjacent         // consecutive floats: a midpoint rounds onto a neighbour
	colCopyFirst        // a copy of column 0: exact ties across features
	colHuge             // magnitudes whose pairwise sums overflow
	colSmallNaN         // five distinct values and NaN rows: binned per rank
	colAtBound          // MaxThresholds+1 distinct values: the most binned per rank
	colPastBound        // MaxThresholds+2 distinct values: the fewest binned through the bitset
	numColKinds
)

const (
	labelSignal  = iota // a step in column 0 plus noise
	labelBinary         // {0, 1}, decided by column 0
	labelOffset         // mean 1e6, variance 1: the error bound is large
	labelHuge           // values whose squares overflow: the bound is +Inf
	labelTiny           // node SSE just above the 1e-12 leaf guard
	labelNoise          // pure noise
	labelNearTie        // offset 1e6 with a symmetric step: near-equal gains
	numLabelKinds
)

type splitCase struct {
	name      string
	n         int
	cols      []int
	label     int
	seed      int64
	p         TreeParams
	sel       bool // train on a strided subset of the frame through sel
	bootstrap bool // rows drawn with replacement
}

func (c splitCase) gen() (fr *Frame, sel []int, y []float64, rows []int) {
	rng := stats.NewRNG(c.seed)
	frameRows := c.n
	if c.sel {
		frameRows = 2*c.n + 1
	}
	X := make([][]float64, frameRows)
	for r := range X {
		X[r] = make([]float64, len(c.cols))
	}
	for ci, kind := range c.cols {
		for r := range X {
			var v float64
			switch kind {
			case colUniform:
				v = rng.Float64()*10 - 5
			case colSmallInt:
				v = float64(rng.Intn(5))
			case colNaN:
				v = rng.Float64()
				if rng.Intn(8) == 0 {
					v = math.NaN()
				}
			case colInf:
				v = []float64{math.Inf(-1), -1, 0, 2.5, math.Inf(1)}[rng.Intn(5)]
			case colInfOnly:
				v = []float64{math.Inf(-1), math.Inf(1), math.Inf(1), math.NaN()}[rng.Intn(4)]
			case colConstant:
				v = 3
			case colAdjacent:
				v = 1
				for k := rng.Intn(6); k > 0; k-- {
					v = math.Nextafter(v, 2)
				}
			case colCopyFirst:
				v = X[r][0]
			case colHuge:
				v = []float64{-1.7e308, -1e308, 1e308, 1.2e308, 1.7e308}[rng.Intn(5)]
			case colSmallNaN:
				v = float64(rng.Intn(5))
				if rng.Intn(6) == 0 {
					v = math.NaN()
				}
			case colAtBound, colPastBound:
				// The first rows take every value once, so a frame of as
				// many rows holds exactly card distinct values.
				card := c.p.MaxThresholds + 1
				if c.p.MaxThresholds <= 0 {
					card = DefaultTreeParams().MaxThresholds + 1
				}
				card += kind - colAtBound
				v = float64(rng.Intn(card)) / 4
				if r < card {
					v = float64(r) / 4
				}
			}
			X[r][ci] = v
		}
	}
	fr = FrameFromRows(X)
	if c.sel {
		sel = make([]int, c.n)
		for i := range sel {
			sel[i] = 2*i + 1
		}
	}
	y = make([]float64, c.n)
	for i := range y {
		r := i
		if sel != nil {
			r = sel[i]
		}
		x0 := X[r][0]
		step := 0.0
		if x0 > 0.5 {
			step = 1
		}
		switch c.label {
		case labelSignal:
			y[i] = 3*step + 0.3*rng.NormFloat64()
		case labelBinary:
			y[i] = step
		case labelOffset:
			y[i] = 1e6 + rng.NormFloat64()
		case labelHuge:
			y[i] = 1e160 * rng.NormFloat64()
		case labelTiny:
			y[i] = 2e-7 * rng.NormFloat64()
		case labelNoise:
			y[i] = rng.NormFloat64()
		case labelNearTie:
			y[i] = 1e6 + math.Abs(x0-2) + 1e-9*rng.NormFloat64()
		}
	}
	if c.bootstrap {
		rows = rng.Bootstrap(c.n)
	} else {
		rows = make([]int, c.n)
		for i := range rows {
			rows[i] = i
		}
	}
	return fr, sel, y, rows
}

var splitCases = []splitCase{
	{name: "uniform-subsampled", n: 200, cols: []int{colUniform, colUniform}, label: labelSignal, seed: 1},
	{name: "few-distinct", n: 200, cols: []int{colSmallInt, colSmallInt}, label: labelSignal, seed: 2},
	{name: "nan-rows", n: 150, cols: []int{colNaN, colUniform}, label: labelSignal, seed: 3},
	{name: "nan-rows-shift-subsample", n: 400, cols: []int{colNaN, colNaN}, label: labelNoise, seed: 4, p: TreeParams{MaxThresholds: 8}},
	{name: "infinities", n: 120, cols: []int{colInf, colSmallInt}, label: labelSignal, seed: 5},
	{name: "neg-inf-next-to-pos-inf", n: 80, cols: []int{colInfOnly, colSmallInt}, label: labelNoise, seed: 6},
	{name: "constant-column", n: 60, cols: []int{colConstant, colSmallInt}, label: labelNoise, seed: 7},
	{name: "adjacent-floats", n: 120, cols: []int{colAdjacent, colAdjacent}, label: labelNoise, seed: 8},
	{name: "exact-ties-first-wins", n: 100, cols: []int{colSmallInt, colCopyFirst, colCopyFirst}, label: labelBinary, seed: 9},
	// Two partitions with the same label counts tie exactly on paper and land
	// a few ulps apart under Welford; with the error bound forced to zero the
	// filter drops the one the reference picks (feature 3 at depth 3).
	{name: "ties-that-round-apart", n: 98, cols: []int{colInfOnly, colConstant, colUniform, colUniform}, label: labelBinary, seed: -127, p: TreeParams{MinLeaf: 12, MaxThresholds: 38}, sel: true, bootstrap: true},
	{name: "offset-labels", n: 300, cols: []int{colUniform, colSmallInt}, label: labelOffset, seed: 10},
	{name: "near-ties-under-offset", n: 400, cols: []int{colSmallInt, colCopyFirst}, label: labelNearTie, seed: 11},
	{name: "huge-labels", n: 100, cols: []int{colUniform, colSmallInt}, label: labelHuge, seed: 12},
	{name: "tiny-labels", n: 100, cols: []int{colUniform, colSmallInt}, label: labelTiny, seed: 13},
	{name: "huge-values", n: 100, cols: []int{colHuge, colSmallInt}, label: labelSignal, seed: 14},
	{name: "min-leaf-boundary", n: 40, cols: []int{colSmallInt, colUniform}, label: labelSignal, seed: 15, p: TreeParams{MinLeaf: 8}},
	{name: "min-leaf-half", n: 40, cols: []int{colSmallInt, colUniform}, label: labelSignal, seed: 16, p: TreeParams{MinLeaf: 20}},
	{name: "bootstrap-duplicates", n: 200, cols: []int{colUniform, colNaN, colSmallInt}, label: labelSignal, seed: 17, bootstrap: true},
	{name: "through-sel", n: 150, cols: []int{colUniform, colSmallInt}, label: labelSignal, seed: 18, sel: true, bootstrap: true},
	{name: "feature-subsets", n: 200, cols: []int{colUniform, colSmallInt, colNaN, colAdjacent, colUniform}, label: labelSignal, seed: 19, p: TreeParams{MaxFeatures: 2}, bootstrap: true},
	{name: "at-per-rank-bound", n: 200, cols: []int{colAtBound, colSmallNaN}, label: labelSignal, seed: 20, bootstrap: true},
	{name: "past-per-rank-bound", n: 200, cols: []int{colPastBound, colSmallNaN}, label: labelSignal, seed: 23, bootstrap: true},
}

// checkSplitParity grows the case's tree node by node and holds the split
// search to refBestSplit at every node: same feature, same threshold bits,
// same gain bits. Both searches start from the same RNG state. The moments
// the search hands each child are held to meanSSE over the child's rows,
// which is what the reference builder computes there.
func checkSplitParity(t testing.TB, c splitCase) {
	t.Helper()
	fr, sel, y, rows := c.gen()
	p := c.p
	if p.MaxDepth == 0 {
		p.MaxDepth = 6
	}
	b := newTreeBuilder(fr, sel, y, len(rows), p, stats.NewRNG(c.seed))
	var walk func(rows []int, depth int)
	walk = func(rows []int, depth int) {
		mean, sse := meanSSE(y, rows)
		if len(rows) < 2*b.p.MinLeaf || depth >= b.p.MaxDepth || sse <= 1e-12 {
			return
		}
		before := *b.rng
		wantF, wantT, wantG := b.refBestSplit(rows, sse)
		*b.rng = before
		gotF, gotT, gotG, gotL, gotR := b.bestSplit(rows, mean, sse)
		if gotF != wantF || math.Float64bits(gotT) != math.Float64bits(wantT) || math.Float64bits(gotG) != math.Float64bits(wantG) {
			t.Fatalf("%s depth %d (%d rows): split (feature %d, threshold %v, gain %v), reference (%d, %v, %v)",
				c.name, depth, len(rows), gotF, gotT, gotG, wantF, wantT, wantG)
		}
		if wantG <= 1e-12 {
			return
		}
		var left, right []int
		for _, r := range rows {
			if b.X.at(r, wantF) <= wantT {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		for _, side := range []struct {
			name string
			rows []int
			m    moments
		}{{"left", left, gotL}, {"right", right, gotR}} {
			mean, sse := meanSSE(y, side.rows)
			if math.Float64bits(side.m.mean) != math.Float64bits(mean) || math.Float64bits(side.m.sse()) != math.Float64bits(sse) {
				t.Fatalf("%s depth %d: %s child inherits (mean %v, sse %v), meanSSE over its %d rows says (%v, %v)",
					c.name, depth, side.name, side.m.mean, side.m.sse(), len(side.rows), mean, sse)
			}
		}
		walk(left, depth+1)
		walk(right, depth+1)
	}
	walk(rows, 0)

	// And whole trees: the builder (in-place partition, scratch reuse across
	// nodes) against the reference builder.
	got := FitTreeFrame(fr, sel, y, rows, p, stats.NewRNG(c.seed))
	want := newTreeBuilder(fr, sel, y, len(rows), p, stats.NewRNG(c.seed)).refBuild(rows, 0)
	if !sameTree(got.root, want) {
		t.Fatalf("%s: tree differs from the reference builder's", c.name)
	}
}

func TestSplitSearchMatchesReference(t *testing.T) {
	for _, c := range splitCases {
		c := c
		t.Run(c.name, func(t *testing.T) { checkSplitParity(t, c) })
	}
}

// TestForestMatchesReference holds whole forests to the reference builder,
// tree by tree, with one and two fitting goroutines, with and without sel.
func TestForestMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []splitCase{
		{name: "identity", n: 300, cols: []int{colUniform, colSmallInt, colNaN, colUniform}, label: labelSignal, seed: 21},
		{name: "sel", n: 300, cols: []int{colUniform, colSmallInt, colAdjacent, colInf, colCopyFirst}, label: labelOffset, seed: 22, sel: true},
	} {
		fr, sel, y, _ := c.gen()
		p := ForestParams{NumTrees: 6, Seed: c.seed, Tree: TreeParams{MaxDepth: 8, MinLeaf: 3}}
		want := refFitForest(fr, sel, y, p)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			got := FitForestFrame(fr, sel, y, p)
			for i := range want {
				if !sameTree(got.trees[i].root, want[i]) {
					t.Errorf("%s GOMAXPROCS=%d: tree %d differs from the reference builder's", c.name, procs, i)
				}
			}
		}
	}
}

// TestForestScratchReuse holds FitForestFrame to refFitForest tree by tree
// while each fitting worker grows an uneven run of trees on one builder: 7
// trees on 1, 2 and 3 workers at the default MaxThresholds, over the columns
// at and just past the bound of per-rank binning, a low-cardinality column
// with NaN, a column with both infinities and a continuous one, trained
// through sel nil, a permutation of the frame and a strided subset shorter
// than it.
func TestForestScratchReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	c := splitCase{n: 1500, cols: []int{colSmallNaN, colAtBound, colPastBound, colInf, colUniform}, label: labelSignal, seed: 37}
	fr, _, frameY, _ := c.gen()
	subset := make([]int, 0, fr.Rows()/2)
	for r := 1; r < fr.Rows(); r += 2 {
		subset = append(subset, r)
	}
	// MinLeaf 2 searches nodes of 4 to 7 rows, which find their ranks of
	// the uniform column by sorting instead of walking its 24 bitset words.
	p := ForestParams{NumTrees: 7, Seed: 38, Tree: DefaultTreeParams()}
	p.Tree.MinLeaf = 2
	for _, tc := range []struct {
		name string
		sel  []int
	}{{"identity", nil}, {"permutation", stats.NewRNG(39).Perm(fr.Rows())}, {"subset", subset}} {
		y := frameY
		if tc.sel != nil {
			y = make([]float64, len(tc.sel))
			for pos, r := range tc.sel {
				y[pos] = frameY[r]
			}
		}
		want := refFitForest(fr, tc.sel, y, p)
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			got := FitForestFrame(fr, tc.sel, y, p)
			for i := range want {
				if !sameTree(got.trees[i].root, want[i]) {
					t.Errorf("%s GOMAXPROCS=%d: tree %d differs from the reference builder's", tc.name, procs, i)
				}
			}
		}
	}
}

func FuzzSplitSearchParity(f *testing.F) {
	for _, c := range splitCases {
		var cols uint32
		for i, k := range c.cols {
			cols |= uint32(k) << (4 * i)
		}
		flags := uint8(0)
		if c.sel {
			flags |= 1
		}
		if c.bootstrap {
			flags |= 2
		}
		f.Add(c.seed, uint16(c.n), uint8(len(c.cols)), cols, uint8(c.label), uint8(c.p.MinLeaf), uint8(c.p.MaxThresholds), uint8(c.p.MaxFeatures), flags)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim uint8, cols uint32, label, minLeaf, maxT, maxF, flags uint8) {
		c := splitCase{
			name: "fuzz", seed: seed, n: 2 + int(n)%400, label: int(label) % numLabelKinds,
			p:   TreeParams{MinLeaf: int(minLeaf) % 64, MaxThresholds: int(maxT) % 48, MaxFeatures: int(maxF) % 6},
			sel: flags&1 != 0, bootstrap: flags&2 != 0,
		}
		for i := 0; i < 1+int(dim)%5; i++ {
			c.cols = append(c.cols, int(cols>>(4*i)&15)%numColKinds)
		}
		checkSplitParity(t, c)
	})
}

// figure1Frame encodes the paper's Figure-1 view over AmazonSyn(products,
// 12, 7): one row per product, features Price, Category, Brand and Quality,
// label the product's average rating.
func figure1Frame(t testing.TB, products int) (*Frame, []float64) {
	t.Helper()
	a := dataset.AmazonSyn(products, 12, 7)
	q, err := hyperql.ParseWhatIf(`USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality, AVG(T2.Rating) AS Rtng
		FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID
		GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality)
		UPDATE(Price) = 1 OUTPUT COUNT(*)`)
	if err != nil {
		t.Fatal(err)
	}
	view, err := sqlmini.RunSelect(a.DB, q.Use.Select, "RelevantView")
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrame(NewEncoder(view, []string{"Price", "Category", "Brand", "Quality"}), view)
	y := make([]float64, view.Len())
	for i := range y {
		y[i] = view.Value(i, view.Schema().MustIndex("Rtng")).AsFloat()
	}
	return fr, y
}

// TestFilterPrunes: on the Figure-1 view the filter leaves splitGain at most
// one threshold per node searched on average. A count, not a timing: a
// per-feature filter reads 1.26 per node here, and one that stops pruning
// (everything exact) about 20.
func TestFilterPrunes(t *testing.T) {
	fr, y := figure1Frame(t, 2000)
	p := DefaultForestParams()
	p.Tree.MaxFeatures = 2
	root := stats.NewRNG(7)
	var searches, candidates, exact int
	for i := 0; i < p.NumTrees; i++ {
		rng := root.Split()
		rows := rng.Bootstrap(len(y))
		b := newTreeBuilder(fr, nil, y, len(rows), p.Tree, rng)
		mean, sse := meanSSE(y, rows)
		b.build(rows, 0, mean, sse)
		searches += b.searches
		candidates += b.candidates
		exact += b.exactPasses
	}
	nodes := searches / p.Tree.MaxFeatures // every node searched tries MaxFeatures features
	t.Logf("%d exact passes for %d nodes searched holding %d thresholds (%.2f per node, %.1f%% of thresholds)",
		exact, nodes, candidates, float64(exact)/float64(nodes), 100*float64(exact)/float64(candidates))
	if nodes == 0 || exact > nodes {
		t.Errorf("%d exact passes for %d nodes searched: the filter should leave at most one per node on average", exact, nodes)
	}
}

// TestFrameRanksOnce: concurrent first tree fits on a cold frame share one
// rank store, and a frame that only fits freq and linear models never
// builds one. Run under -race.
func TestFrameRanksOnce(t *testing.T) {
	X, y := makeXY(400, 3, 31, func(x []float64) float64 { return x[0] - x[1] }, 0.1)
	fr := FrameFromRows(X)
	stores := make([]*rankStore, 8)
	var wg sync.WaitGroup
	for g := range stores {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			FitTreeFrame(fr, nil, y, nil, DefaultTreeParams(), stats.NewRNG(int64(g)))
			stores[g] = fr.rankStore()
		}(g)
	}
	wg.Wait()
	for g, s := range stores {
		if s == nil || s != stores[0] {
			t.Fatalf("goroutine %d saw rank store %p, goroutine 0 saw %p", g, s, stores[0])
		}
	}

	cold := FrameFromRows(X)
	FitFreqFrame(cold, identityRows(len(y)), y, 0)
	FitLinearFrame(cold, nil, y, 1e-6)
	if cold.ranks != nil {
		t.Error("freq and linear fits built the rank store")
	}
}

// TestFrameZeroColumns: interning and ranking a frame without feature
// columns run no per-column work (the column pool is handed no shard).
func TestFrameZeroColumns(t *testing.T) {
	fr := FrameOfColumns(nil, nil, 4)
	fr.Intern()
	if s := fr.rankStore(); fr.Dim() != 0 || len(fr.remap) != 0 || len(s.vals) != 0 || s.maxCard != 0 {
		t.Errorf("zero-column frame: dim %d, %d code columns, %d rank columns", fr.Dim(), len(fr.remap), len(s.vals))
	}
}

func identityRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}
