package howto

import (
	"context"
	"fmt"
	"math"

	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/ml"
	"hyper/internal/plan"
	"hyper/internal/relation"
)

// Candidates enumerates the permissible update set S_B for every attribute
// of the HOWTOUPDATE clause (Section 4.3). Categorical attributes yield one
// "set to v" candidate per domain value; continuous attributes are
// discretized into o.Buckets equi-width buckets over the LIMIT range (or the
// observed data range) and yield one candidate per bucket midpoint. LIMIT
// constraints filter the set: range bounds, IN lists, and the normalized L1
// distance over the WHEN tuples.
func Candidates(db *relation.Database, q *hyperql.HowTo, o Options) (map[string][]hyperql.UpdateSpec, error) {
	cands, _, err := candidates(context.Background(), db, q, o, whenSets{})
	return cands, err
}

// maxCandidatesPerAttr caps the candidate set of one HOWTOUPDATE attribute.
const maxCandidatesPerAttr = 64

// candidates resolves q (engine.Resolve: every how-to entry starts here, and
// it looks the relevant view up once, in a view stage of ctx, leaving it in
// the how-to's engine cache for the candidate what-ifs), then enumerates the
// candidates of each HOWTOUPDATE attribute over the base column it writes.
func candidates(ctx context.Context, db *relation.Database, q *hyperql.HowTo, o Options, ws whenSets) (map[string][]hyperql.UpdateSpec, map[string]engine.BaseColumn, error) {
	o = o.withDefaults()
	bases, err := engine.Resolve(ctx, db, q, o.Engine)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string][]hyperql.UpdateSpec, len(q.Attrs))
	srcs := make(map[string]engine.BaseColumn, len(q.Attrs))
	for i, attr := range q.Attrs {
		specs, err := candidatesFor(bases[i], attr, q, o, ws)
		if err != nil {
			return nil, nil, err
		}
		if len(specs) > maxCandidatesPerAttr {
			specs = specs[:maxCandidatesPerAttr]
		}
		out[attr], srcs[attr] = specs, bases[i]
	}
	return out, srcs, nil
}

func candidatesFor(src engine.BaseColumn, attr string, q *hyperql.HowTo, o Options, ws whenSets) ([]hyperql.UpdateSpec, error) {
	rangeLo, rangeHi := math.Inf(-1), math.Inf(1)
	var inVals []relation.Value
	theta := math.Inf(1)
	for _, l := range q.Limits {
		if l.Attr != attr {
			continue
		}
		switch l.Kind {
		case hyperql.LimitRange:
			if !l.Lo.IsNull() {
				rangeLo = math.Max(rangeLo, l.Lo.AsFloat())
			}
			if !l.Hi.IsNull() {
				rangeHi = math.Min(rangeHi, l.Hi.AsFloat())
			}
		case hyperql.LimitIn:
			inVals = append(inVals, l.Vals...)
		case hyperql.LimitL1:
			theta = math.Min(theta, l.Theta)
		}
	}

	// Pre-update values of the WHEN tuples, for the L1 feasibility check; a
	// WHEN the planner rejects fails here whether or not there is one.
	inS, err := ws.mask(src.Rel, q.When)
	if err != nil {
		return nil, err
	}
	var pres []float64
	if !math.IsInf(theta, 1) {
		pres = gather(src, inS)
	}
	feasible := func(v relation.Value) bool {
		f := v.AsFloat()
		if v.Kind().Numeric() && (f < rangeLo || f > rangeHi) {
			return false
		}
		if len(pres) > 0 {
			// Normalized L1 distance between the original value vector and
			// the update vector (Section 4.1).
			d := 0.0
			for _, p := range pres {
				d += math.Abs(v.AsFloat() - p)
			}
			if d/float64(len(pres)) > theta {
				return false
			}
		}
		return true
	}

	var specs []hyperql.UpdateSpec
	add := func(v relation.Value) {
		if feasible(v) {
			specs = append(specs, hyperql.UpdateSpec{Attr: attr, Form: hyperql.UpdateSet, Const: v})
		}
	}

	if len(inVals) > 0 {
		for _, v := range inVals {
			add(v)
		}
		return specs, nil
	}

	base := src.Rel.Schema().Col(src.Col)
	if base.Kind == relation.KindFloat {
		lo, hi, ok := src.Rel.MinMax(base.Name)
		if !ok {
			return nil, fmt.Errorf("howto: attribute %q has no numeric values", attr)
		}
		if !math.IsInf(rangeLo, -1) {
			lo = rangeLo
		}
		if !math.IsInf(rangeHi, 1) {
			hi = rangeHi
		}
		d := ml.NewDiscretizer(lo, hi, o.Buckets)
		for _, mid := range d.Midpoints() {
			add(relation.Float(mid))
		}
		return specs, nil
	}

	// Discrete attribute: one candidate per observed domain value.
	for _, v := range src.Rel.Domain(base.Name) {
		if v.IsNull() {
			continue
		}
		add(v)
	}
	return specs, nil
}

// whenSets memoizes a how-to's WHEN set over each base relation holding one
// of its update attributes, so a how-to computes the mask once per relation
// however many attributes and passes (L1 feasibility, update costs) read it.
type whenSets map[*relation.Relation][]bool

// mask returns the WHEN set over rel, which the planner's program decides
// over the base relation. A WHEN the plan cannot validate there — it may name
// view-only columns such as aggregates — selects all rows, as does a nil one.
func (ws whenSets) mask(rel *relation.Relation, when hyperql.Expr) ([]bool, error) {
	if inS, ok := ws[rel]; ok {
		return inS, nil
	}
	inS := make([]bool, rel.Len())
	p := plan.Compile(rel, when)
	if p.Fallback {
		when = nil // undecidable on the base relation: Apply(nil) keeps every row
	}
	if _, err := p.Apply(when, rel, inS); err != nil {
		return nil, fmt.Errorf("howto: WHEN: %w", err)
	}
	ws[rel] = inS
	return inS, nil
}

// gather is src's column as floats over the rows inS selects.
func gather(src engine.BaseColumn, inS []bool) []float64 {
	var out []float64
	for i, in := range inS {
		if in {
			out = append(out, src.Rel.Value(i, src.Col).AsFloat())
		}
	}
	return out
}
