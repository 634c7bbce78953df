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
//
// The frequency estimator is fitted on a FreqIndex over a frame's interned
// codes, built once per frame and training set and shared by every label
// fitted on it: each level of the index (the exact combination, each backoff
// feature, the protected prefix) is a relation.TupleIndex giving the level's
// code tuples dense ids, the one code-tuple index sqlmini's groups and joins
// use too. A frame column over a relation column interns through that
// column's codes.
package ml

import "hyper/internal/relation"

// Regressor is a fitted model mapping an encoded feature vector to a real
// prediction. Implementations must be safe for concurrent Predict calls.
type Regressor interface {
	Predict(x []float64) float64
}

// Encoder maps relational values of a fixed list of feature columns into
// dense float vectors by the rule of relation.CodedColumn.Encode: numeric
// values pass through; strings and booleans get stable ordinal codes learned
// from the data (sorted order, so codes are deterministic). Unseen categories
// map to -1.
type Encoder struct {
	cols   []string
	coded  []*relation.CodedColumn // the columns the encoding was learned from
	schema *relation.Schema        // schema the column indexes were resolved on
	idxs   []int                   // schema column index per feature
}

// NewEncoder learns an encoding for the given columns from all rows of rel:
// it is that of rel's shared per-column projections (relation.Relation.Coded),
// so encoders over one relation agree and none formats a per-row key.
func NewEncoder(rel *relation.Relation, cols []string) *Encoder {
	e := &Encoder{
		cols:   append([]string(nil), cols...),
		coded:  make([]*relation.CodedColumn, len(cols)),
		schema: rel.Schema(),
		idxs:   make([]int, len(cols)),
	}
	for ci, col := range cols {
		e.idxs[ci] = rel.Schema().MustIndex(col)
		e.coded[ci] = rel.Coded(e.idxs[ci])
	}
	return e
}

// Dim returns the number of features.
func (e *Encoder) Dim() int { return len(e.cols) }

// EncodeValue encodes the value of feature i.
func (e *Encoder) EncodeValue(i int, v relation.Value) float64 { return e.coded[i].Encode(v) }

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
