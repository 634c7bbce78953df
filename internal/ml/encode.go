// Package ml is HypeR's from-scratch machine-learning substrate. The paper's
// implementation estimates conditional probabilities with an sklearn random
// forest regressor (Section 5, A.4); this package provides an equivalent
// CART regression tree and random forest, an exact conditional-frequency
// estimator with a non-zero-support index (the optimization of A.4), feature
// encoding from relational values, and equi-width discretization used by the
// how-to engine.
//
// Trees are grown on a Frame. The first tree fitted on a frame builds its
// rank store (per column: the distinct values ascending and every row's rank
// among them), which every later tree, forest and how-to candidate on that
// frame shares. The split search reads a node's distinct values off those
// ranks instead of sorting them, bins the node's rows by candidate threshold
// in one pass, and from the bin sums discards every threshold whose gain is
// provably below the best one; the single-pass gain the trees have always
// used (splitGain) then decides among the few that remain, so the fitted
// trees are bit for bit those of evaluating it on every candidate (see
// bestSplit and splitEps in tree.go).
package ml

import (
	"sort"

	"hyper/internal/relation"
)

// Regressor is a fitted model mapping an encoded feature vector to a real
// prediction. Implementations must be safe for concurrent Predict calls.
type Regressor interface {
	Predict(x []float64) float64
}

// Encoder maps relational values of a fixed list of feature columns into
// dense float vectors. Numeric values pass through; strings and booleans get
// stable ordinal codes learned from the data (sorted order, so codes are
// deterministic). Unseen categories map to -1.
type Encoder struct {
	cols   []string
	codes  []map[string]float64 // nil for numeric columns
	schema *relation.Schema     // schema the column indexes were resolved on
	idxs   []int                // schema column index per feature
}

// NewEncoder learns an encoding for the given columns from all rows of rel.
// It reads rel's shared per-column projections (relation.Relation.Coded):
// whether a column is all numeric and, for a categorical one, its distinct
// values — no per-row key is formatted.
func NewEncoder(rel *relation.Relation, cols []string) *Encoder {
	e := &Encoder{
		cols:   append([]string(nil), cols...),
		codes:  make([]map[string]float64, len(cols)),
		schema: rel.Schema(),
		idxs:   make([]int, len(cols)),
	}
	for ci, col := range cols {
		idx := rel.Schema().MustIndex(col)
		e.idxs[ci] = idx
		cc := rel.Coded(idx)
		if cc.Numeric {
			continue
		}
		keys := make([]string, 0, len(cc.Values))
		for _, v := range cc.Values {
			if !v.IsNull() {
				keys = append(keys, v.Key())
			}
		}
		sort.Strings(keys)
		m := make(map[string]float64, len(keys))
		for i, k := range keys {
			m[k] = float64(i)
		}
		e.codes[ci] = m
	}
	return e
}

// Columns returns the encoded feature column names in order.
func (e *Encoder) Columns() []string { return append([]string(nil), e.cols...) }

// Dim returns the number of features.
func (e *Encoder) Dim() int { return len(e.cols) }

// EncodeValue encodes the value of feature i.
func (e *Encoder) EncodeValue(i int, v relation.Value) float64 {
	if e.codes[i] == nil {
		if v.IsNull() {
			return 0
		}
		if v.Kind() == relation.KindBool {
			if v.AsBool() {
				return 1
			}
			return 0
		}
		return v.AsFloat()
	}
	if c, ok := e.codes[i][v.Key()]; ok {
		return c
	}
	return -1
}

// Encode encodes one tuple of rel into a feature vector (allocating).
func (e *Encoder) Encode(rel *relation.Relation, row relation.Tuple) []float64 {
	out := make([]float64, len(e.cols))
	e.EncodeInto(rel, row, out)
	return out
}

// EncodeInto encodes one tuple into dst, which must have length Dim().
// Column positions are precomputed at construction; a relation with a
// schema other than the encoder's resolves them per call.
func (e *Encoder) EncodeInto(rel *relation.Relation, row relation.Tuple, dst []float64) {
	if rel.Schema() == e.schema {
		for i, idx := range e.idxs {
			dst[i] = e.EncodeValue(i, row[idx])
		}
		return
	}
	for i, col := range e.cols {
		dst[i] = e.EncodeValue(i, row[rel.Schema().MustIndex(col)])
	}
}

// Matrix encodes every row of rel into a feature matrix.
func (e *Encoder) Matrix(rel *relation.Relation) [][]float64 {
	idxs := make([]int, len(e.cols))
	for i, col := range e.cols {
		idxs[i] = rel.Schema().MustIndex(col)
	}
	out := make([][]float64, rel.Len())
	flat := make([]float64, rel.Len()*len(e.cols))
	for r, row := range rel.Rows() {
		vec := flat[r*len(e.cols) : (r+1)*len(e.cols)]
		for i, idx := range idxs {
			vec[i] = e.EncodeValue(i, row[idx])
		}
		out[r] = vec
	}
	return out
}
