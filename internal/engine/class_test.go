package engine

// Oracles of the tuple-class partition (classes.go): the same prepared
// evaluation, run once with the partition and once with the class key
// cleared (every row its own class, the producer's unkeyed form), must agree
// on every bit and every error.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
	"hyper/internal/shard"
	"hyper/internal/stats"
)

// The class worlds: one relation T whose columns walk what a class key can
// meet. The kind chooses column F (and the row count); everything else is
// shared. Rows concentrate on few value combinations, as German-Syn's do.
var classWorldKinds = []string{
	"base",     // F is a small int: every column exact and discrete
	"psi",      // base plus a cross-tuple edge: ψ summaries, shared blocks
	"zeros",    // F holds -0.0 and +0.0 (one code)
	"mixed",    // F holds Int 3 and Float 3.0 (one code)
	"nan",      // F holds two NaN payloads (one code)
	"nan-one",  // F holds one NaN payload: exact after all
	"wide",     // F has rows/3 values: no column over rows/2, classes over it
	"highcard", // F is distinct per row
	"empty",    // no rows
	"fk",       // base plus a parent relation P: T's rows meet P's blocks out of order
}

type classWorldData struct {
	db    *relation.Database
	model *causal.Model
}

var classWorlds sync.Map // kind -> *classWorldData, built once (relations cache their Coded columns)

func classWorld(kind string) (*relation.Database, *causal.Model) {
	if w, ok := classWorlds.Load(kind); ok {
		return w.(*classWorldData).db, w.(*classWorldData).model
	}
	n := 600
	if kind == "empty" {
		n = 0
	}
	fKind := relation.KindInt
	switch kind {
	case "zeros", "mixed":
		fKind = relation.KindNull // untyped: Insert keeps each value's own kind
	case "nan", "nan-one":
		fKind = relation.KindFloat
	}
	cols := []relation.Column{
		{Name: "ID", Kind: relation.KindInt, Key: true},
		{Name: "G", Kind: relation.KindInt},
		{Name: "S", Kind: relation.KindString},
		{Name: "Z", Kind: relation.KindInt},
		{Name: "X", Kind: relation.KindInt, Mutable: true},
		{Name: "W", Kind: relation.KindInt, Mutable: true},
		{Name: "F", Kind: fKind, Mutable: true},
		{Name: "Y", Kind: relation.KindFloat, Mutable: true},
	}
	const parents = 10
	if kind == "fk" {
		cols = append(cols, relation.Column{Name: "PID", Kind: relation.KindInt})
	}
	rel := relation.NewRelation("T", relation.MustSchema(cols...))
	negZero := math.Copysign(0, -1)
	nanA, nanB := math.NaN(), math.Float64frombits(0x7ff8000000000abc)
	rng := stats.NewRNG(41)
	for i := 0; i < n; i++ {
		u := rng.Intn(8) // latent: G, S, Z and F follow it
		z := relation.Int(int64(u % 3))
		if u == 5 {
			z = relation.Null
		}
		x := rng.Intn(3)
		w := (u + x + rng.Intn(2)) % 2
		var f relation.Value
		switch kind {
		case "zeros":
			f = []relation.Value{relation.Float(negZero), relation.Float(0), relation.Float(1)}[(u+i)%3]
		case "mixed":
			f = []relation.Value{relation.Int(3), relation.Float(3), relation.Int(1)}[(u+i)%3]
		case "nan":
			f = []relation.Value{relation.Float(nanA), relation.Float(nanB), relation.Float(1.5)}[(u+i)%3]
		case "nan-one":
			f = []relation.Value{relation.Float(nanA), relation.Float(2.5), relation.Float(1.5)}[u%3]
		case "wide":
			f = relation.Int(int64(i % (n / 3)))
		case "highcard":
			f = relation.Int(int64(i))
		default:
			f = relation.Int(int64(u % 3))
		}
		y := 0.25 * float64(x+2*w+u%4+rng.Intn(2))
		row := []relation.Value{relation.Int(int64(i)), relation.Int(int64(u % 4)), relation.String("abc"[u%3 : u%3+1]),
			z, relation.Int(int64(x)), relation.Int(int64(w)), f, relation.Float(y)}
		if kind == "fk" {
			// Y of ±2^30 by the parent's parity: block totals far larger
			// than the answer they cancel to, so a block total whose
			// addends came in another order shows in the answer's bits.
			pid := rng.Intn(parents)
			row[7] = relation.Float(y + float64(1-2*(pid%2))*(1<<30))
			row = append(row, relation.Int(int64(pid)))
		}
		rel.MustInsert(row...)
	}
	db := relation.NewDatabase()
	if kind == "fk" {
		// P comes first, so a block is numbered by its parent row, and the
		// rows of T, which reference parents at random, meet the blocks out
		// of order and share each with other shards.
		p := relation.NewRelation("P", relation.MustSchema(relation.Column{Name: "PID", Kind: relation.KindInt, Key: true}))
		for k := range parents {
			p.MustInsert(relation.Int(int64(k)))
		}
		db.MustAdd(p)
	}
	db.MustAdd(rel)
	if kind == "fk" {
		if err := db.AddForeignKey(relation.ForeignKey{Child: "T", ChildCol: "PID", Parent: "P", ParentCol: "PID"}); err != nil {
			panic(err)
		}
	}
	model := causal.NewModel()
	for _, e := range [][2]string{{"G", "X"}, {"S", "X"}, {"F", "X"}, {"Z", "W"}, {"X", "Y"}, {"W", "Y"}, {"G", "Y"}, {"F", "Y"}, {"Z", "Y"}} {
		model.AddEdge("T."+e[0], "T."+e[1])
	}
	if kind == "psi" {
		model.AddCross(causal.CrossEdge{FromRel: "T", FromAttr: "X", ToRel: "T", ToAttr: "Y", GroupBy: "T.G"})
	}
	w, _ := classWorlds.LoadOrStore(kind, &classWorldData{db: db, model: model})
	return w.(*classWorldData).db, w.(*classWorldData).model
}

// classGerman is a German-Syn world large enough that a query reading all
// seven attributes still collapses (fuzzData's 800 rows take more than 400
// combinations of them and evaluate row by row).
var classGerman = sync.OnceValue(func() *dataset.Single {
	return dataset.GermanSyn(2400, 97)
})

// overflowLit is true of Float 3.0 and false of Int 3: the int product wraps
// negative. One of the few expressions that tell the two apart.
const overflowLit = `PRE(F) * 4611686018427387904 > 0`

// randomClassQuery draws a what-if over a class world: every clause the
// tuple loop and the label functions read, in shapes that partition and
// shapes that must not.
func randomClassQuery(rng *stats.RNG) string {
	src := "USE T "
	switch rng.Intn(6) {
	case 0: // no WHEN
	case 1:
		src += "WHEN G >= 1 "
	case 2:
		src += "WHEN S = 'a' "
	case 3:
		src += fmt.Sprintf("WHEN Z + X >= %d ", 1+rng.Intn(3)) // residual arithmetic, NULLs
	case 4:
		src += "WHEN Z != 1 AND G <= 2 "
	default:
		src += "WHEN NOT (S = 'b') AND X + W >= 1 "
	}
	switch rng.Intn(7) {
	case 0:
		src += fmt.Sprintf("UPDATE(X) = %d ", rng.Intn(4)) // incl. the unseen value 3
	case 1:
		src += "UPDATE(X) = 1 + PRE(X) "
	case 2:
		src += fmt.Sprintf("UPDATE(X) = %d AND UPDATE(W) = %d ", rng.Intn(3), rng.Intn(2))
	case 3:
		src += fmt.Sprintf("UPDATE(X) = %d * PRE(X) ", rng.Intn(3)) // a zero row stays put
	case 4: // the column that may be inexact: set, shift or scale
		src += []string{"UPDATE(F) = 3 ", "UPDATE(F) = 0 ", "UPDATE(F) = 2 + PRE(F) ", "UPDATE(F) = -1 * PRE(F) "}[rng.Intn(4)]
	case 5:
		src += fmt.Sprintf("UPDATE(F) = 1.5 AND UPDATE(W) = %d ", rng.Intn(2))
	default:
		src += fmt.Sprintf("UPDATE(W) = %d ", rng.Intn(2))
	}
	switch rng.Intn(6) {
	case 0:
		src += "OUTPUT COUNT(Y >= 0.75)"
	case 1:
		src += "OUTPUT COUNT(POST(Y) > 0.5 AND S != 'c')"
	case 2:
		src += "OUTPUT AVG(POST(Y))"
	case 3:
		src += "OUTPUT SUM(POST(Y))"
	case 4:
		src += "OUTPUT SUM(POST(F))" // Y is the special column itself
	default:
		src += "OUTPUT AVG(POST(F))"
	}
	switch rng.Intn(12) {
	case 0, 1: // no FOR
	case 2:
		src += " FOR PRE(S) = 'a'" // pre only
	case 3:
		src += " FOR PRE(Z) = 1 OR PRE(G) = 3"
	case 4:
		src += " FOR POST(Y) >= 0.75" // post only
	case 5:
		src += " FOR POST(Y) >= 0.5 OR PRE(G) = 0" // a pre and a post disjunct
	case 6:
		src += " FOR PRE(G) >= 1 AND POST(Y) < 1 OR POST(Y) >= 1.25 AND PRE(S) != 'b'" // mixed disjuncts
	case 7:
		src += " FOR PRE(X) < POST(X)" // a literal mixing both: domain expansion
	case 8:
		src += " FOR " + overflowLit
	case 9:
		src += " FOR PRE(G) = 1 AND PRE(Other.X) = 0" // fails on the G = 1 classes only
	case 10:
		src += " FOR PRE(Nope) = 1" // a missing column
	default:
		src += " FOR PRE(F) >= 0 AND PRE(Z) IN (0, 2)"
	}
	return src
}

// classRun is one evaluation of a prepared query, class-partitioned or with
// every row its own class.
type classRun struct {
	err     error
	parts   []ShardPartial
	res     *Result // folded; nil for a shard subset
	meta    PartialMeta
	classOf *relation.Codes
	classes int
}

// runClassEval mirrors EvaluateContext (ids == nil) or EvaluatePartialContext
// (a shard subset); unkeyed clears the Prepared's class key first.
func runClassEval(db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options, ids []int, unkeyed bool) classRun {
	ctx := context.Background()
	p, err := prepareEvaluation(ctx, db, model, q, opts)
	if err != nil {
		return classRun{err: err}
	}
	if unkeyed {
		p.keyed = false
	}
	var out classRun
	if ids == nil {
		out.res, err = p.evaluate(ctx)
	} else {
		out.parts, err = p.partials(ctx, ids)
	}
	if err != nil {
		return classRun{err: err}
	}
	out.meta, out.classOf, out.classes = p.meta(), p.classOf, p.classes
	return out
}

// diffClassRuns compares two runs: the same error, or the same meta and
// every partial bit for bit, and a folded answer whose value, sum and count
// agree under same. Where every view row is a block of its own, partials are
// compared row by row: a coded row's class value against the other side's
// value for that row, whether coded or per row.
func diffClassRuns(got, want classRun, same func(a, b float64) bool) error {
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Errorf("error %q, per-row %q", fmt.Sprint(got.err), fmt.Sprint(want.err))
	}
	if got.meta.TrainedModels != want.meta.TrainedModels || !got.meta.Consistent(want.meta) {
		return fmt.Errorf("meta %+v, per-row %+v", got.meta, want.meta)
	}
	if len(got.parts) != len(want.parts) {
		return fmt.Errorf("%d partials, per-row %d", len(got.parts), len(want.parts))
	}
	for i, g := range got.parts {
		w := want.parts[i]
		if got.meta.RowsOwnBlocks {
			gs, gc := rowsOf(g)
			ws, wc := rowsOf(w)
			if g.Shard != w.Shard || len(gs) != len(ws) {
				return fmt.Errorf("partial %d: shard %d of %d rows, per-row shard %d of %d", i, g.Shard, len(gs), w.Shard, len(ws))
			}
			for j := range gs {
				if !bitsEqual(gs[j], ws[j]) || !bitsEqual(gc[j], wc[j]) {
					return fmt.Errorf("shard %d row %d (code width %d): (%v,%v) bits (%x,%x), per-row (%v,%v) bits (%x,%x)", g.Shard, j, g.Width,
						gs[j], gc[j], math.Float64bits(gs[j]), math.Float64bits(gc[j]),
						ws[j], wc[j], math.Float64bits(ws[j]), math.Float64bits(wc[j]))
				}
			}
			continue
		}
		if g.Shard != w.Shard || g.MinBlock != w.MinBlock || len(g.Sum) != len(w.Sum) || len(g.Cnt) != len(w.Cnt) || g.Codes != nil || w.Codes != nil {
			return fmt.Errorf("partial %d: shard/min/len/codes %d/%d/%d/%d, per-row %d/%d/%d/%d", i,
				g.Shard, g.MinBlock, len(g.Sum), len(g.Codes), w.Shard, w.MinBlock, len(w.Sum), len(w.Codes))
		}
		for j := range g.Sum {
			if !bitsEqual(g.Sum[j], w.Sum[j]) || !bitsEqual(g.Cnt[j], w.Cnt[j]) {
				return fmt.Errorf("shard %d block %d: (%v,%v) bits (%x,%x), per-row (%v,%v) bits (%x,%x)", g.Shard, g.MinBlock+j,
					g.Sum[j], g.Cnt[j], math.Float64bits(g.Sum[j]), math.Float64bits(g.Cnt[j]),
					w.Sum[j], w.Cnt[j], math.Float64bits(w.Sum[j]), math.Float64bits(w.Cnt[j]))
			}
		}
	}
	if (got.res == nil) != (want.res == nil) {
		return fmt.Errorf("folded result present = %v, per-row %v", got.res != nil, want.res != nil)
	}
	if g, w := got.res, want.res; g != nil {
		if !same(g.Value, w.Value) || !same(g.Sum, w.Sum) || !same(g.Count, w.Count) || g.TrainedModels != w.TrainedModels {
			return fmt.Errorf("value/sum/count/trained %v/%v/%v/%d, per-row %v/%v/%v/%d",
				g.Value, g.Sum, g.Count, g.TrainedModels, w.Value, w.Sum, w.Count, w.TrainedModels)
		}
	}
	return nil
}

// rowsOf expands a partial of the own-block regime into its rows' (sum,
// count) values in row order: a coded row's are its class's.
func rowsOf(w ShardPartial) (sum, cnt []float64) {
	if w.Width == 0 {
		return w.Sum, w.Cnt
	}
	for j := 0; j < len(w.Codes); j += w.Width {
		c := int(w.Codes[j])
		if w.Width == 2 {
			c = int(binary.LittleEndian.Uint16(w.Codes[j:]))
		}
		sum, cnt = append(sum, w.Sum[c]), append(cnt, w.Cnt[c])
	}
	return sum, cnt
}

// codingError says how a run's own-block partials break the coding rule: a
// shard's rows travel as class codes exactly when they reference at most
// 65,536 classes and the codes (16 B a class, and a byte a row under 256
// classes, two above) come to fewer bytes than the rows' values, 16 a row;
// a coded partial then holds each referenced class once.
func codingError(run classRun, plan shard.Plan) error {
	if !run.meta.RowsOwnBlocks {
		return nil
	}
	for _, w := range run.parts {
		lo, hi := plan.Bounds(w.Shard)
		want, classes := 0, 0
		if run.classOf != nil {
			seen := map[uint32]bool{}
			for i := lo; i < hi; i++ {
				seen[run.classOf.At(i)] = true
			}
			classes, want = len(seen), 1
			if classes > 1<<8 {
				want = 2
			}
			if classes > 1<<16 || 16*classes+want*(hi-lo) >= 16*(hi-lo) {
				want = 0
			}
		}
		if w.Width != want || want > 0 && len(w.Sum) != classes {
			return fmt.Errorf("shard %d: %d rows over %d classes went as %d values at code width %d, want width %d",
				w.Shard, hi-lo, classes, len(w.Sum), w.Width, want)
		}
	}
	return nil
}

// checkClassParity holds the partitioned evaluation of q to the per-row one
// at a serial and a parallel fan-out and on a shard subset, each side on
// cold caches of its own. It returns the class-side run at Shards 1.
func checkClassParity(t testing.TB, db *relation.Database, model *causal.Model, src string, opts Options) classRun {
	t.Helper()
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatalf("generated query does not parse: %q: %v", src, err)
	}
	opts.ShardRows = 128 // several shards even over the small worlds
	var first classRun
	for _, shards := range []int{1, 4} {
		opts.Shards = shards
		// A query whose view fails has no plan; the runs below must then
		// agree on the failure.
		plan, _, _ := PlanContext(context.Background(), db, model, q, opts)
		runs := [][]int{nil} // nil: every shard, folded
		var subset []int
		for s := 1; s < plan; s += 2 {
			subset = append(subset, s)
		}
		if subset != nil {
			runs = append(runs, subset)
		}
		for _, ids := range runs {
			got := runClassEval(db, model, q, opts, ids, false)
			want := runClassEval(db, model, q, opts, ids, true)
			if want.classOf != nil {
				t.Fatalf("%q: clearing the class key left a partition in place", src)
			}
			for _, run := range []classRun{got, want} {
				if err := codingError(run, shard.Rows(run.meta.ViewRows, opts.ShardRows)); err != nil {
					t.Fatalf("%q shards=%d subset=%v (classes=%d): %v", src, shards, ids, run.classes, err)
				}
			}
			// Both sides fold through the same code: every bit agrees.
			if err := diffClassRuns(got, want, bitsEqual); err != nil {
				t.Fatalf("%q shards=%d subset=%v (classes=%d): %v", src, shards, ids, got.classes, err)
			}
			if shards == 1 && ids == nil {
				first = got
			}
		}
	}
	return first
}

func TestClassEvalMatchesPerRow(t *testing.T) {
	const german, germanSmall = "german", "german-small"
	for _, tc := range []struct {
		name      string
		world     string
		query     string
		opts      Options
		partition bool   // the rows must be partitioned (false: must not be)
		wantErr   string // "" = the query answers
	}{
		{"pre-only FOR, COUNT(cond)", german,
			`USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`, Options{Seed: 7}, true, ""},
		{"post-only FOR", german,
			`USE German UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1`, Options{Seed: 7}, true, ""},
		{"mixed disjuncts", german,
			`USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR POST(Credit) = 1 OR PRE(Age) = 0`, Options{Seed: 7}, true, ""},
		{"mixed literal", german,
			`USE German UPDATE(Status) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Status) < POST(Status)`, Options{Seed: 7}, true, ""},
		{"residual arithmetic WHEN", german,
			`USE German WHEN Age + Sex >= 2 UPDATE(Housing) = 1 OUTPUT SUM(POST(Credit))`, Options{Seed: 7}, true, ""},
		{"two update attributes", german,
			`USE German WHEN Sex = 1 UPDATE(Status) = 3 AND UPDATE(Savings) = 1 OUTPUT COUNT(Credit = 1)`, Options{Seed: 7}, true, ""},
		{"sampled, forest fallback", german,
			`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Options{Seed: 7, SampleSize: 300}, true, ""},
		{"no background", german,
			`USE German UPDATE(CreditAmount) = 1 + PRE(CreditAmount) OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 0`, Options{Seed: 7, Mode: ModeNB}, true, ""},
		{"no background, too few rows to collapse", germanSmall,
			`USE German UPDATE(CreditAmount) = 1 + PRE(CreditAmount) OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 0`, Options{Seed: 7, Mode: ModeNB}, false, ""},
		{"float Y, AVG", "base",
			`USE T WHEN G >= 1 UPDATE(X) = 2 OUTPUT AVG(POST(Y))`, Options{Seed: 3}, true, ""},
		{"float Y, SUM, NULLs in WHEN and FOR", "base",
			`USE T WHEN Z + X >= 2 UPDATE(X) = 1 + PRE(X) OUTPUT SUM(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`, Options{Seed: 3}, true, ""},
		{"string column", "base",
			`USE T WHEN S = 'a' UPDATE(W) = 1 OUTPUT COUNT(POST(Y) > 0.5 AND S != 'c') FOR PRE(S) != 'b'`, Options{Seed: 3}, true, ""},
		{"pre-only FOR with an IN list", "base",
			`USE T UPDATE(X) = 0 OUTPUT SUM(POST(Y)) FOR PRE(F) >= 0 AND PRE(Z) IN (0, 2)`, Options{Seed: 3}, true, ""},
		{"sampled freq", "base",
			`USE T UPDATE(X) = 1 OUTPUT AVG(POST(Y)) FOR POST(Y) >= 0.5`, Options{Seed: 3, SampleSize: 400, Estimator: EstimatorFreq}, true, ""},
		{"psi summaries", "psi",
			`USE T WHEN S = 'a' UPDATE(X) = 1 + PRE(X) OUTPUT AVG(POST(Y)) FOR PRE(Z) = 1 OR POST(Y) >= 1`, Options{Seed: 3}, true, ""},
		{"psi summaries, two updates", "psi",
			`USE T UPDATE(X) = 2 AND UPDATE(W) = 0 OUTPUT COUNT(Y >= 0.75)`, Options{Seed: 3}, true, ""},
		{"signed zeros", "zeros",
			`USE T UPDATE(X) = 2 OUTPUT SUM(POST(F))`, Options{Seed: 3}, false, ""},
		{"Int 3 beside Float 3.0", "mixed",
			`USE T UPDATE(X) = 2 OUTPUT COUNT(Y >= 0.75) FOR ` + overflowLit, Options{Seed: 3}, false, ""},
		{"two NaN payloads in Y", "nan",
			`USE T UPDATE(X) = 2 OUTPUT SUM(POST(F))`, Options{Seed: 3}, false, ""},
		{"one NaN payload", "nan-one",
			`USE T UPDATE(X) = 2 OUTPUT SUM(POST(F)) FOR PRE(G) <= 2`, Options{Seed: 3}, true, ""},
		{"FOR fails on the first row of a class", "base",
			`USE T UPDATE(X) = 2 OUTPUT AVG(POST(Y)) FOR PRE(G) = 1 AND PRE(Other.X) = 0`, Options{Seed: 3}, true,
			`offset 63: unknown table "Other"`},
		{"missing column", "base",
			`USE T UPDATE(X) = 2 OUTPUT AVG(POST(Y)) FOR PRE(Nope) = 1`, Options{Seed: 3}, false,
			`offset 48: unknown column "Nope" in T`},
		{"empty view", "empty",
			`USE T UPDATE(X) = 2 OUTPUT AVG(POST(Y)) FOR PRE(G) = 1`, Options{Seed: 3}, false, ""},
		{"classes over half the rows", "wide",
			`USE T UPDATE(X) = 2 OUTPUT AVG(POST(Y))`, Options{Seed: 3}, false, ""},
		{"a column over half the rows", "highcard",
			`USE T UPDATE(X) = 2 OUTPUT AVG(POST(Y))`, Options{Seed: 3}, false, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var db *relation.Database
			var model *causal.Model
			switch tc.world {
			case german:
				db, model = classGerman().DB, classGerman().Model
			case germanSmall:
				db, model = fuzzData().DB, fuzzData().Model
			default:
				db, model = classWorld(tc.world)
			}
			got := checkClassParity(t, db, model, tc.query, tc.opts)
			if (got.err != nil) != (tc.wantErr != "") || got.err != nil && got.err.Error() != tc.wantErr {
				t.Fatalf("err = %v, want %q", got.err, tc.wantErr)
			}
			// A query naming a column the view lacks fails to resolve, before
			// anything is prepared: it has no partition to report.
			if got.err != nil {
				if !errors.As(got.err, new(*hyperql.SemanticError)) {
					t.Fatalf("err = %v, want a name error", got.err)
				}
				return
			}
			if partitioned := got.classOf != nil; partitioned != tc.partition {
				t.Fatalf("partitioned = %v (classes %d), want %v", partitioned, got.classes, tc.partition)
			}
			if tc.partition {
				if rows := got.meta.ViewRows; got.classes == 0 || got.classes > rows/2 {
					t.Fatalf("%d classes over %d rows", got.classes, rows)
				}
			}
		})
	}
}

// FuzzClassEvalParity draws a world and a query — German-Syn (the planner
// fuzzer's 800 rows or classGerman) under the planner fuzzer's generator, or
// a class world under randomClassQuery —
// with random sampling, mode and estimator, and holds the partitioned
// evaluation to the per-row one and both to the materialised loops of
// bind_test.go. CI runs it as a 30 s smoke; locally:
//
//	go test -fuzz=FuzzClassEvalParity -fuzztime=30s -run '^$' ./internal/engine
func FuzzClassEvalParity(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 5, 7, 11, 42, 97, 211, 1009, 1234567, -5, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := stats.NewRNG(seed)
		opts := Options{Seed: 1 + int64(rng.Intn(3))}
		if rng.Intn(4) == 0 {
			opts.SampleSize = 200 + rng.Intn(300)
		}
		if rng.Intn(4) == 0 {
			opts.Mode = ModeNB
		}
		if rng.Intn(5) == 0 {
			opts.Estimator = EstimatorFreq
		}
		if rng.Intn(3) == 0 {
			g := fuzzData()
			if rng.Intn(2) == 0 {
				g = classGerman()
			}
			src := randomPlannedQuery(rng)
			if rng.Intn(3) == 0 { // a second update attribute
				src = twoUpdates(src)
			}
			checkClassParity(t, g.DB, g.Model, src, opts)
			checkBindParity(t, g.DB, g.Model, src, opts)
			return
		}
		db, model := classWorld(classWorldKinds[rng.Intn(len(classWorldKinds))])
		src := randomClassQuery(rng)
		checkClassParity(t, db, model, src, opts)
		checkBindParity(t, db, model, src, opts)
	})
}

// twoUpdates adds UPDATE(Status) or UPDATE(Savings) — whichever the query
// does not update yet — to a randomPlannedQuery.
func twoUpdates(src string) string {
	extra := " AND UPDATE(Status) = 2 OUTPUT"
	if strings.Contains(src, "UPDATE(Status)") {
		extra = " AND UPDATE(Savings) = 1 OUTPUT"
	}
	return strings.Replace(src, " OUTPUT", extra, 1)
}

// TestClassLabelsMatchPerRow: the label vector a fit receives is the per-row
// one to the bit, over the whole view and over a sample, for every event
// subset of the query, weighted and not — and it costs one expression run per
// class.
func TestClassLabelsMatchPerRow(t *testing.T) {
	db, model := classWorld("base")
	q, err := hyperql.ParseWhatIf(`USE T WHEN G >= 1 UPDATE(X) = 2 OUTPUT AVG(POST(Y))
		FOR POST(Y) >= 0.75 AND PRE(Z) = 1 OR POST(Y) < 0.5 AND S != 'c' OR PRE(G) = 0`)
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range []int{0, 250} {
		p, err := prepareEvaluation(context.Background(), db, model, q, Options{Seed: 5, SampleSize: sample})
		if err != nil {
			t.Fatal(err)
		}
		key, ok := p.classKey()
		if !ok {
			t.Fatal("the base world must partition")
		}
		rows := p.est.trainRows
		if (sample == 0) != (len(rows) == p.v.Rel.Len()) {
			t.Fatalf("sample=%d trains on %d of %d rows", sample, len(rows), p.v.Rel.Len())
		}
		perRow := *p
		classOf, first := key.partition(p.inS)
		p.classOf, p.classes = classOf, len(first)
		if p.classOf == nil {
			t.Fatal("the base world must partition")
		}
		if len(p.events) != 2 {
			t.Fatalf("%d post events, want 2", len(p.events))
		}
		for mask := uint64(0); mask < 4; mask++ {
			for _, weighted := range []bool{false, true} {
				lits := p.eventLits(mask)
				got, want := p.labelFor(lits, weighted), perRow.labelFor(lits, weighted)
				for _, r := range rows {
					g, gerr := got.label(r)
					w, werr := want.label(r)
					if gerr != nil || werr != nil || !bitsEqual(g, w) {
						t.Fatalf("sample=%d mask=%d weighted=%v row %d: label %v (%v), per-row %v (%v)", sample, mask, weighted, r, g, gerr, w, werr)
					}
				}
				if want.evals != len(rows) || got.evals > p.classes || got.evals == 0 {
					t.Fatalf("sample=%d mask=%d: %d label evaluations for %d classes; per-row %d for %d rows",
						sample, mask, got.evals, p.classes, want.evals, len(rows))
				}
			}
		}
	}
}

// collapseShapes are the benchmark's twelve German-Syn template shapes
// (bench/gen.go germanShapes) with constants filled in.
var collapseShapes = []string{
	`USE German UPDATE(Status) = 2 OUTPUT COUNT(Credit = 1)`,
	`USE German UPDATE(Savings) = 1 OUTPUT AVG(POST(Credit))`,
	`USE German UPDATE(Housing) = 1 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
	`USE German UPDATE(CreditAmount) = 2 OUTPUT AVG(POST(Credit)) FOR PRE(Sex) = 1`,
	`USE German WHEN Age >= 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
	`USE German WHEN Age <= 2 AND Sex = 0 UPDATE(Savings) = 2 OUTPUT AVG(POST(Credit))`,
	`USE German WHEN Age >= 1 AND Status + Savings >= 3 UPDATE(Housing) = 2 OUTPUT COUNT(Credit = 1)`,
	`USE German WHEN Status + Housing >= 2 UPDATE(CreditAmount) = 1 OUTPUT COUNT(Credit = 1)`,
	`USE German WHEN Age >= 2 UPDATE(Status) = 1 OUTPUT COUNT(Credit = 1) FOR PRE(Sex) = 0`,
	`USE German WHEN Sex = 1 AND Savings + Housing >= 2 UPDATE(Status) = 2 OUTPUT AVG(POST(Credit)) FOR PRE(Age) = 1`,
	`USE German WHEN Age <= 1 UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`,
	`USE German WHEN Sex = 0 UPDATE(CreditAmount) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
}

// tracedEval evaluates q under a trace and returns the eval_shards span.
func tracedEval(t *testing.T, db *relation.Database, model *causal.Model, src string, opts Options) (*Result, *obs.SpanJSON) {
	t.Helper()
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("whatif")
	res, err := EvaluateContext(tr.Context(context.Background()), db, model, q, opts)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	tr.Finish()
	for _, c := range tr.Root().JSON().Children {
		if c.Name == "eval_shards" {
			return res, c
		}
	}
	t.Fatalf("%s: no eval_shards span", src)
	return nil, nil
}

// TestPartitionCollapses counts, it does not time: over the benchmark's
// German-Syn shapes the rows collapse to a few hundred classes, tuple() runs
// at most once per class per worker and every fit labels at most once per
// class — so a silent return to the per-row loop fails here — while on the
// Amazon view, whose Price is continuous, the partition is given up on the
// column summaries, before any pass over the rows.
func TestPartitionCollapses(t *testing.T) {
	g := dataset.GermanSyn(5000, 7)
	for _, src := range collapseShapes {
		for _, shards := range []int{1, 2} {
			res, es := tracedEval(t, g.DB, g.Model, src, Options{Seed: 7, Shards: shards, ShardRows: 1024})
			classes, evaluated, workers := es.Attrs["classes"].(int64), es.Attrs["evaluated"].(int64), es.Attrs["workers"].(int64)
			if classes < 1 || classes > 800 {
				t.Errorf("%s: %d classes over %d rows, want 1..800", src, classes, res.ViewRows)
			}
			if evaluated < classes || evaluated > classes*workers {
				t.Errorf("%s: %d tuple() calls for %d classes on %d workers", src, evaluated, classes, workers)
			}
			fits := 0
			for _, c := range es.Children {
				if c.Name != "fit" {
					continue
				}
				fits++
				if evals := c.Attrs["label_evals"].(int64); evals < 1 || evals > classes {
					t.Errorf("%s: a fit ran %d label evaluations for %d classes", src, evals, classes)
				}
			}
			if fits != res.TrainedModels || fits == 0 {
				t.Errorf("%s: %d fit spans, %d trained models", src, fits, res.TrainedModels)
			}
		}
	}

	a := dataset.AmazonSyn(300, 6, 7)
	src := amazonUse + ` WHEN Category = 'Laptop' UPDATE(Price) = 0.90 * PRE(Price) OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'`
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepareEvaluation(context.Background(), a.DB, a.Model, q, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.classKey(); ok {
		t.Error("the Amazon view has a class key: its continuous Price should have ruled one out")
	}
	res, es := tracedEval(t, a.DB, a.Model, src, Options{Seed: 7})
	if classes, evaluated := es.Attrs["classes"].(int64), es.Attrs["evaluated"].(int64); classes != 0 || int(evaluated) != res.ViewRows {
		t.Errorf("Amazon: %d classes, %d tuple() calls over %d rows; want the per-row loop", classes, evaluated, res.ViewRows)
	}
}

// TestPartitionDoesNotOutliveRequest: the partition belongs to its
// Prepared, and on the local path (prepareEvaluation, as EvaluateContext)
// no cache keeps the Prepared, so the partition belongs to one evaluation.
// Nothing the engine cache keeps — the view, the blocks, the estimator set
// and the models a labeler trained — may hold on to it. A partial
// evaluation's cached Prepared keeps its partition until it is evicted
// (TestPartialPreparedEvictionFreesPartition).
func TestPartitionDoesNotOutliveRequest(t *testing.T) {
	g := dataset.GermanSyn(500, 7)
	q, err := hyperql.ParseWhatIf(`USE German UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Age) = 0`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheBounded(64)
	collected := make(chan struct{})
	func() {
		p, err := prepareEvaluation(context.Background(), g.DB, g.Model, q, Options{Seed: 7, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.evaluate(context.Background()); err != nil {
			t.Fatal(err)
		}
		if p.classOf == nil || p.est.trainedModels() == 0 {
			t.Fatal("no partition or no lazy fit; the test proved nothing")
		}
		runtime.SetFinalizer(p.classOf, func(*relation.Codes) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if c.Stats().Entries == 0 {
				t.Fatal("the cache is empty; the test proved nothing")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the class partition is still reachable after the evaluation returned")
}
