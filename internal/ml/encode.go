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
// ranks instead of sorting them (a column of at most MaxThresholds+1 values
// in the same pass that sums the node's rows per rank), bins the node's
// rows by candidate threshold, and from the bin sums discards every
// threshold whose gain is provably below the best one; the single-pass gain
// the trees have always used (splitGain) then decides among the few that
// remain, and the winner's pass hands the node its partition, so the fitted
// trees are bit for bit those of evaluating it on every candidate (see
// bestSplit and splitEps in tree.go). A forest keeps one tree builder, and
// so one set of scratch buffers, per fitting worker.
//
// The frequency estimator is fitted on a FreqIndex over a frame's interned
// codes, built once per frame and training set and shared by every label
// fitted on it: each level of the index (the exact combination, each backoff
// feature, the protected prefix) is a relation.TupleIndex giving the level's
// code tuples dense ids, the one code-tuple index sqlmini's groups and joins
// use too. Every frame column interns through the codes of a relation
// column it is a function of, and keeps none of its own.
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
	cols  []string
	coded []*relation.CodedColumn // the columns the encoding was learned from
}

// NewEncoder learns an encoding for the given columns from all rows of rel:
// it is that of rel's shared per-column projections (relation.Relation.Coded),
// so encoders over one relation agree and none formats a per-row key.
func NewEncoder(rel *relation.Relation, cols []string) *Encoder {
	e := &Encoder{
		cols:  append([]string(nil), cols...),
		coded: make([]*relation.CodedColumn, len(cols)),
	}
	for ci, col := range cols {
		e.coded[ci] = rel.Coded(rel.Schema().MustIndex(col))
	}
	return e
}

// Dim returns the number of features.
func (e *Encoder) Dim() int { return len(e.cols) }

// EncodeValue encodes the value of feature i.
func (e *Encoder) EncodeValue(i int, v relation.Value) float64 { return e.coded[i].Encode(v) }
