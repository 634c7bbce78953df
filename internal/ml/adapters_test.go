package ml

import (
	"slices"

	"hyper/internal/relation"
	"hyper/internal/stats"
)

// FrameFromRows builds a frame from an already-encoded row matrix, each
// column coded by relation.ColumnOf: the tests' adapter from [][]float64
// fixtures to the frame every fit reads.
func FrameFromRows(X [][]float64) *Frame {
	dim := 0
	if len(X) > 0 {
		dim = len(X[0])
	}
	cols := make([][]float64, dim)
	coded := make([]*relation.CodedColumn, dim)
	vals := make([]relation.Value, len(X))
	for c := range cols {
		cols[c] = make([]float64, len(X))
		for r, x := range X {
			cols[c][r], vals[r] = x[c], relation.Float(x[c])
		}
		coded[c] = relation.ColumnOf(vals)
	}
	return FrameOfColumns(cols, coded, 0)
}

// FitTreeFrame trains one regression tree over frame rows. sel maps training
// positions to frame rows (nil for identity); y is parallel to positions;
// rows selects positions (with repetition, enabling bootstrap) and may be
// nil for all. rows is not modified. rng drives feature subsampling and may
// be nil when MaxFeatures is 0.
func FitTreeFrame(fr *Frame, sel []int, y []float64, rows []int, p TreeParams, rng *stats.RNG) *Tree {
	own := slices.Clone(rows)
	if rows == nil {
		own = make([]int, len(y))
		for i := range own {
			own[i] = i
		}
	}
	return newTreeBuilder(fr, sel, y, len(own), p, nil).fit(own, rng)
}

// EncodeInto encodes one tuple of rel into dst, which must have length
// Dim(), a value at a time: the reference the frame's gathered columns are
// checked against.
func (e *Encoder) EncodeInto(rel *relation.Relation, row relation.Tuple, dst []float64) {
	for i, col := range e.cols {
		dst[i] = e.EncodeValue(i, row[rel.Schema().MustIndex(col)])
	}
}

// exactSupport is the number of training rows of f exactly matching x, read
// off the exact level of its index.
func exactSupport(f *FreqEstimator, x []float64) int {
	var buf [16]uint32
	if c, ok := f.ix.cell(0, f.ix.encode(x, &buf)); ok {
		return int(f.ix.n[c])
	}
	return 0
}
