package engine

// Oracle of bind-on-read. Until it was computed where tuple() reads it, the
// engine materialised every view row's post-update values and affected bit
// per evaluation (and summed the ψ groups under Key() strings). Those loops
// live on here as the reference: every row's (sum, count), every summary and
// every answer must equal theirs to the bit.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
	"hyper/internal/sqlmini"
)

// boundRef is what the materialised loops computed for one evaluation.
type boundRef struct {
	postVals  map[string][]relation.Value
	summaries []summaryFeature
	affected  []bool
}

// materialise runs the former Steps 4 and 5 of prepareEvaluation and the
// affected loop the evaluator once prepared, over e's view, WHEN set and updates.
// ignoreWhen doctors it: every row counts as selected.
func materialise(e *evaluator, model *causal.Model, ignoreWhen bool) (boundRef, error) {
	rel := e.v.Rel
	ref := boundRef{postVals: make(map[string][]relation.Value)}
	for _, u := range e.updates {
		ci := rel.Schema().MustIndex(u.Attr)
		vals := make([]relation.Value, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			pre := rel.Row(i)[ci]
			if e.inS[i] || ignoreWhen {
				vals[i] = u.Apply(pre)
			} else {
				vals[i] = pre
			}
		}
		ref.postVals[u.Attr] = vals
	}
	if model != nil {
		for _, ce := range model.Cross {
			src := causal.Qualify(ce.FromRel, ce.FromAttr)
			var attr string
			for _, a := range e.updateAttrs {
				if e.v.qualified[rel.Schema().MustIndex(a)] == src {
					attr = a
				}
			}
			if attr == "" {
				continue
			}
			gRel, gAttr := causal.SplitQualified(ce.GroupBy)
			if gRel == "" {
				gRel = ce.FromRel
			}
			gi := e.v.column(gRel, gAttr)
			if gi < 0 {
				return ref, fmt.Errorf("engine: cross-edge group attribute %q is not in the relevant view", gAttr)
			}
			ai := rel.Schema().MustIndex(attr)
			n := rel.Len()
			type acc struct {
				preSum, postSum float64
				n               int
			}
			groups := map[string]*acc{}
			keys := make([]string, n)
			for i := 0; i < n; i++ {
				k := rel.Row(i)[gi].Key()
				keys[i] = k
				a := groups[k]
				if a == nil {
					a = &acc{}
					groups[k] = a
				}
				a.preSum += rel.Row(i)[ai].AsFloat()
				a.postSum += ref.postVals[attr][i].AsFloat()
				a.n++
			}
			sf := summaryFeature{name: "psi_" + attr + "_by_" + rel.Schema().Col(gi).Name, group: gi, pre: make([]float64, n), post: make([]float64, n)}
			for i := 0; i < n; i++ {
				a := groups[keys[i]]
				sf.pre[i] = a.preSum / float64(a.n)
				sf.post[i] = a.postSum / float64(a.n)
			}
			ref.summaries = append(ref.summaries, sf)
		}
	}
	ref.affected = make([]bool, rel.Len())
	for i := range ref.affected {
		if e.inS[i] || ignoreWhen {
			for ai, a := range e.updateAttrs {
				if !ref.postVals[a][i].Equal(rel.Row(i)[e.updIdx[ai]]) {
					ref.affected[i] = true
				}
			}
		}
		if !ref.affected[i] {
			for _, s := range ref.summaries {
				if math.Abs(s.post[i]-s.pre[i]) > 1e-12 {
					ref.affected[i] = true
					break
				}
			}
		}
	}
	return ref, nil
}

// tuple is evaluator.tuple as it read the materialised arrays.
func (ref boundRef) tuple(e *evaluator, i int) (sum, count float64, err error) {
	row := e.v.Rel.Row(i)
	env := sqlmini.RowEnv{Rel: e.v.Rel, Row: i}
	var active []int
	for k, d := range e.disjuncts {
		ok := true
		for _, lit := range d.pre {
			pass, err := sqlmini.EvalBool(lit, env)
			if err != nil {
				return 0, 0, fmt.Errorf("engine: FOR: %w", err)
			}
			if !pass {
				ok = false
				break
			}
		}
		if ok {
			active = append(active, k)
		}
	}
	if len(active) == 0 {
		return 0, 0, nil
	}
	if !ref.affected[i] {
		p, err := e.observedEvent(i, active)
		if err != nil || p == 0 {
			return 0, 0, err
		}
		y := 1.0
		if e.yIdx >= 0 {
			y = row[e.yIdx].AsFloat()
		}
		return y, 1, nil
	}
	x := make([]float64, len(e.est.featCols))
	e.est.featureVectorInto(i, x)
	for ai, a := range e.updateAttrs {
		x[e.featUpd[ai]] = e.est.encodeAt(e.featUpd[ai], ref.postVals[a][i])
	}
	for si, s := range ref.summaries {
		x[e.featSum[si]] = s.post[i]
	}
	if count, err = e.inclusionExclusion(i, active, x, false); err != nil {
		return 0, 0, err
	}
	count = clamp01(count)
	if e.yIdx < 0 {
		return count, count, nil
	}
	sum, err = e.inclusionExclusion(i, active, x, true)
	return sum, count, err
}

// supportedFraction is the freq → forest probe as it read postVals.
func (ref boundRef) supportedFraction(e *evaluator) float64 {
	n := e.v.Rel.Len()
	if n == 0 {
		return 1
	}
	step := max(n/200, 1)
	checked, supported := 0, 0
	x := make([]float64, len(e.est.featCols))
	for i := 0; i < n; i += step {
		if !e.inS[i] {
			continue
		}
		e.est.featureVectorInto(i, x)
		for _, a := range e.updateAttrs {
			fi := e.est.featureIndex(a)
			x[fi] = e.est.encodeAt(fi, ref.postVals[a][i])
		}
		for _, s := range ref.summaries {
			x[e.est.featureIndex(s.name)] = s.post[i]
		}
		checked++
		if e.est.hasSupport(x) {
			supported++
		}
	}
	if checked == 0 {
		return 1
	}
	return float64(supported) / float64(checked)
}

// runBoundRef evaluates q from the materialised arrays: every row through
// ref.tuple — held on the way to the engine's own tuple(), row by row —, then
// each shard's block window over the canonical plan and the per-block fold
// written out (refFoldPartials). Its partials are those windows, or, where
// every view row is a block of its own, each shard's rows' values.
// differs counts the rows on which a doctored reference parts from tuple().
func runBoundRef(db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options, doctored bool) (run classRun, differs int, err error) {
	e, perr := prepareEvaluation(context.Background(), db, model, q, opts)
	if perr != nil {
		return classRun{err: perr}, 0, nil
	}
	ref, err := materialise(e, model, doctored)
	if err != nil {
		return classRun{}, 0, err
	}
	if len(ref.summaries) != len(e.summaries) {
		return classRun{}, 0, fmt.Errorf("%d summaries, materialised %d", len(e.summaries), len(ref.summaries))
	}
	for si, s := range ref.summaries {
		g := e.summaries[si]
		if g.name != s.name || g.group != s.group {
			return classRun{}, 0, fmt.Errorf("summary %d is %s by column %d, materialised %s by %d", si, g.name, g.group, s.name, s.group)
		}
		for i := range s.pre {
			if !doctored && (!bitsEqual(g.pre[i], s.pre[i]) || !bitsEqual(g.post[i], s.post[i])) {
				return classRun{}, 0, fmt.Errorf("summary %s row %d: (%v,%v), materialised (%v,%v)", s.name, i, g.pre[i], g.post[i], s.pre[i], s.post[i])
			}
		}
	}
	if e.est.kind == "freq" && !doctored {
		if got, want := supportedFraction(e.est, e.v, q.Updates, e.summaries, e.inS), ref.supportedFraction(e); got != want {
			return classRun{}, 0, fmt.Errorf("supported fraction %v, materialised %v", got, want)
		}
	}
	n := e.v.Rel.Len()
	sum, cnt := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		var rerr error
		sum[i], cnt[i], rerr = ref.tuple(e, i)
		gs, gc, gerr := e.tuple(i)
		if fmt.Sprint(gerr) != fmt.Sprint(rerr) || !bitsEqual(gs, sum[i]) || !bitsEqual(gc, cnt[i]) {
			if !doctored {
				return classRun{}, 0, fmt.Errorf("row %d: tuple() = (%v,%v) %v, materialised (%v,%v) %v", i, gs, gc, gerr, sum[i], cnt[i], rerr)
			}
			differs++
		}
		if rerr != nil {
			return classRun{err: rerr}, differs, nil
		}
	}
	parts := make([]ShardPartial, e.plan.Shards())
	for s := range parts {
		lo, hi := e.plan.Bounds(s)
		minB, maxB := e.nBlocks, -1
		for i := lo; i < hi; i++ {
			minB, maxB = min(minB, e.blockAt(i)), max(maxB, e.blockAt(i))
		}
		parts[s] = ShardPartial{Shard: s, MinBlock: minB, Sum: make([]float64, maxB-minB+1), Cnt: make([]float64, maxB-minB+1)}
		for i := lo; i < hi; i++ {
			parts[s].Sum[e.blockAt(i)-minB] += sum[i]
			parts[s].Cnt[e.blockAt(i)-minB] += cnt[i]
		}
	}
	refFoldPartials(e.res, parts, e.nBlocks, e.agg)
	e.res.TrainedModels = e.est.trainedModels()
	if e.rowsOwnBlocks() {
		// The rows' own values, which the engine's coded rows must expand to.
		for s := range parts {
			lo, hi := e.plan.Bounds(s)
			parts[s] = ShardPartial{Shard: s, Sum: sum[lo:hi], Cnt: cnt[lo:hi]}
		}
	}
	return classRun{parts: parts, res: e.res, meta: e.meta()}, differs, nil
}

// checkBindParity holds the engine's evaluation of src — partitioned and
// with no class key, serial and parallel — to the materialised reference,
// and Prepared.Evaluate and the distributed form (the even and the odd
// shards evaluated apart and merged) to EvaluateContext.
func checkBindParity(t testing.TB, db *relation.Database, model *causal.Model, src string, opts Options) {
	t.Helper()
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatalf("generated query does not parse: %q: %v", src, err)
	}
	opts.ShardRows = 128
	want, _, err := runBoundRef(db, model, q, opts, false)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	for _, shards := range []int{1, 4} {
		opts.Shards = shards
		// The folded answer, and every shard's partial as a worker returns it.
		folded, windows := want, want
		folded.parts, windows.res = nil, nil
		plan, _, _ := PlanContext(context.Background(), db, model, q, opts)
		all := make([]int, plan)
		for s := range all {
			all[s] = s
		}
		for _, unkeyed := range []bool{false, true} {
			// A folded answer is held to the reference's bits, NaN payloads
			// aside (sameFloat): the reference folds windows where rows that
			// are their own blocks add straight into the totals, and which
			// payload an add keeps where two NaNs meet is the compiler's
			// choice. Every partial keeps every bit: a block window, or a
			// row's value, coded or not.
			if err := diffClassRuns(runClassEval(db, model, q, opts, nil, unkeyed), folded, sameFloat); err != nil {
				t.Fatalf("%q shards=%d unkeyed=%v against the materialised loops: %v", src, shards, unkeyed, err)
			}
			if plan == 0 {
				continue
			}
			parts := runClassEval(db, model, q, opts, all, unkeyed)
			if err := diffClassRuns(parts, windows, bitsEqual); err != nil {
				t.Fatalf("%q shards=%d unkeyed=%v, every shard's partial, against the materialised loops: %v", src, shards, unkeyed, err)
			}
			// And they merge to the reference's fold, NaN payloads aside as
			// above.
			if parts.err == nil {
				merged, err := MergePartials(parts.meta, parts.parts)
				parts.parts, parts.res = nil, merged
				if err == nil {
					err = diffClassRuns(parts, folded, sameFloat)
				}
				if err != nil {
					t.Fatalf("%q shards=%d unkeyed=%v, every shard's partial merged, against the materialised fold: %v", src, shards, unkeyed, err)
				}
			}
		}
		if err := diffPrepared(db, model, q, opts); err != nil {
			t.Fatalf("%q shards=%d: Prepared.Evaluate against EvaluateContext: %v", src, shards, err)
		}
		if err := diffDistributed(db, model, q, opts); err != nil {
			t.Fatalf("%q shards=%d: merged even and odd shards against EvaluateContext: %v", src, shards, err)
		}
	}
}

// diffPrepared compares Prepared.Evaluate of q's own updates with
// EvaluateContext of q, each on cold caches of its own: the same error, or
// the same value, sum, count (NaN payloads aside, see sameFloat) and trained
// models.
func diffPrepared(db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options) error {
	ctx := context.Background()
	want, werr := EvaluateContext(ctx, db, model, q, opts)
	got, gerr := func() (*Result, error) {
		p, err := Prepare(ctx, db, model, q, opts)
		if err != nil {
			return nil, err
		}
		return p.Evaluate(ctx, q.Updates, opts)
	}()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Errorf("error %q, alone %q", fmt.Sprint(gerr), fmt.Sprint(werr))
	}
	if werr != nil {
		return nil
	}
	if !sameFloat(got.Value, want.Value) || !sameFloat(got.Sum, want.Sum) || !sameFloat(got.Count, want.Count) || got.TrainedModels != want.TrainedModels {
		return fmt.Errorf("value/sum/count/trained %x/%x/%x/%d, alone %x/%x/%x/%d",
			math.Float64bits(got.Value), math.Float64bits(got.Sum), math.Float64bits(got.Count), got.TrainedModels,
			math.Float64bits(want.Value), math.Float64bits(want.Sum), math.Float64bits(want.Count), want.TrainedModels)
	}
	return nil
}

// diffDistributed evaluates q's even shards and its odd shards apart, each
// by EvaluatePartialContext on a cold cache of its own as two workers would,
// merges them with MergePartials and compares the merged answer with
// EvaluateContext: the same error (the even shards' first, as a coordinator
// that heard from them first would report), or the same value, sum and
// count, NaN payloads aside (sameFloat). An empty view has no distributed
// form: with no shard to assign, it is not compared.
func diffDistributed(db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options) error {
	ctx := context.Background()
	want, werr := EvaluateContext(ctx, db, model, q, opts)
	plan, _, err := PlanContext(ctx, db, model, q, opts)
	if err == nil && plan == 0 {
		return nil
	}
	got, gerr := func() (*Result, error) {
		if err != nil {
			return nil, err
		}
		var meta PartialMeta
		var parts []ShardPartial
		for odd := range 2 {
			var ids []int
			for s := odd; s < plan; s += 2 {
				ids = append(ids, s)
			}
			if ids == nil {
				continue
			}
			o := opts
			o.Cache = NewCache()
			pr, err := EvaluatePartialContext(ctx, db, model, q, o, ids)
			if err != nil {
				return nil, err
			}
			if odd == 1 && !meta.Consistent(pr.Meta) {
				return nil, fmt.Errorf("the odd shards' meta %+v, the even shards' %+v", pr.Meta, meta)
			}
			meta, parts = pr.Meta, append(parts, pr.Partials...)
		}
		return MergePartials(meta, parts)
	}()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Errorf("error %q, alone %q", fmt.Sprint(gerr), fmt.Sprint(werr))
	}
	if werr != nil {
		return nil
	}
	if !sameFloat(got.Value, want.Value) || !sameFloat(got.Sum, want.Sum) || !sameFloat(got.Count, want.Count) {
		return fmt.Errorf("value/sum/count %x/%x/%x, alone %x/%x/%x",
			math.Float64bits(got.Value), math.Float64bits(got.Sum), math.Float64bits(got.Count),
			math.Float64bits(want.Value), math.Float64bits(want.Sum), math.Float64bits(want.Count))
	}
	return nil
}

func TestBindOnReadMatchesMaterialised(t *testing.T) {
	amazon := dataset.AmazonSyn(300, 6, 7)
	for _, tc := range []struct {
		name, world, query string
	}{
		{"set, WHEN selects some", "base", `USE T WHEN G >= 1 UPDATE(X) = 2 OUTPUT AVG(POST(Y))`},
		{"set, WHEN selects none", "base", `USE T WHEN G >= 99 UPDATE(X) = 2 OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`},
		{"set, no WHEN", "base", `USE T UPDATE(X) = 3 OUTPUT COUNT(POST(Y) > 0.5 AND S != 'c')`},
		{"shift", "base", `USE T WHEN S = 'a' UPDATE(X) = 1 + PRE(X) OUTPUT SUM(POST(Y)) FOR POST(Y) >= 0.75`},
		{"scale, zero rows stay put", "base", `USE T WHEN Z != 1 UPDATE(X) = 2 * PRE(X) OUTPUT AVG(POST(Y))`},
		{"two update attributes", "base", `USE T WHEN G <= 2 UPDATE(X) = 1 AND UPDATE(W) = 1 + PRE(W) OUTPUT COUNT(Y >= 0.75)`},
		{"psi, some", "psi", `USE T WHEN S = 'a' UPDATE(X) = 1 + PRE(X) OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`},
		{"psi, none: no group shifts", "psi", `USE T WHEN G >= 99 UPDATE(X) = 2 OUTPUT AVG(POST(Y))`},
		{"psi, two updates", "psi", `USE T UPDATE(X) = 2 * PRE(X) AND UPDATE(W) = 0 OUTPUT COUNT(Y >= 0.75)`},
		{"signed zeros updated", "zeros", `USE T WHEN G >= 1 UPDATE(F) = 0 OUTPUT AVG(POST(Y))`},
		{"signed zeros scaled", "zeros", `USE T UPDATE(F) = -1 * PRE(F) OUTPUT SUM(POST(Y))`},
		{"Int 3 beside Float 3.0, set", "mixed", `USE T UPDATE(F) = 3 OUTPUT AVG(POST(Y)) FOR ` + overflowLit},
		{"Int 3 beside Float 3.0, shift", "mixed", `USE T WHEN S != 'b' UPDATE(F) = 2 + PRE(F) OUTPUT COUNT(Y >= 0.75)`},
		{"NaN payloads, set", "nan", `USE T UPDATE(F) = 1.5 OUTPUT AVG(POST(Y))`},
		{"NaN payloads, scale", "nan", `USE T WHEN G >= 1 UPDATE(F) = 2 * PRE(F) OUTPUT SUM(POST(Y))`},
		{"foreign key: blocks met out of order", "fk", `USE T WHEN G >= 1 UPDATE(X) = 1 + PRE(X) OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`},
		{"foreign key, SUM", "fk", `USE T UPDATE(X) = 2 * PRE(X) AND UPDATE(W) = 0 OUTPUT SUM(POST(Y)) FOR POST(Y) > 0.5 AND S != 'c'`},
		{"Amazon, cross-tuple edge", "amazon", amazonUse + ` WHEN Category = 'Laptop' UPDATE(Price) = 0.90 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`},
		{"Amazon, every product", "amazon", amazonUse + ` UPDATE(Price) = 50 + PRE(Price) OUTPUT COUNT(POST(Rtng) >= 4)`},
		{"Amazon, no product", "amazon", amazonUse + ` WHEN Category = 'Nope' UPDATE(Price) = 500 OUTPUT AVG(POST(Rtng))`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, model := amazon.DB, amazon.Model
			if tc.world != "amazon" {
				db, model = classWorld(tc.world)
			}
			checkBindParity(t, db, model, tc.query, Options{Seed: 3})
		})
	}
}

// TestBindOracleBites: the reference is able to disagree. Doctored to ignore
// WHEN — the bit every post-update value and affected bit hangs on — it parts
// from tuple() on rows WHEN left out, and only when WHEN leaves some out.
func TestBindOracleBites(t *testing.T) {
	db, model := classWorld("psi")
	for src, wantDiff := range map[string]bool{
		`USE T WHEN G >= 1 UPDATE(X) = 1 + PRE(X) OUTPUT AVG(POST(Y))`: true,
		`USE T UPDATE(X) = 1 + PRE(X) OUTPUT AVG(POST(Y))`:             false,
	} {
		q, err := hyperql.ParseWhatIf(src)
		if err != nil {
			t.Fatal(err)
		}
		_, differs, err := runBoundRef(db, model, q, Options{Seed: 3}, true)
		if err != nil {
			t.Fatal(err)
		}
		if (differs > 0) != wantDiff {
			t.Errorf("%s: the doctored reference differs on %d rows, want some = %v", src, differs, wantDiff)
		}
	}
}
