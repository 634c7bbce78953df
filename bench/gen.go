package main

import (
	"fmt"
	"math/rand"
	"strings"

	"hyper/internal/dataset"
	"hyper/internal/prcm"
	"hyper/internal/relation"
)

// Inputs are a pure function of the seed: the data seed drives the dataset
// generators, and a math/rand stream seeded the same way picks template
// constants. The program under test sees only the generated inputs.

// dataSeed maps the run seed to a dataset seed that is never 0 (hyperd
// replaces a zero dataset seed by its default, which would break the
// benchmark's own rebuild of the same rows for ground truth).
func dataSeed(seed int64) int64 { return seed&0x3fffffff + 1 }

func newRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

// germanSpec is one German-Syn what-if in structured form, so the same
// template renders as HypeRQL and evaluates against the SEM ground truth.
type germanSpec struct {
	whenAgeGE, whenAgeLE int // -1 = absent; pushdown-able conjuncts
	whenSex              int // -1 = absent; pushdown-able conjunct
	// residual, when resT >= 0, adds "<resA> + <resB> >= resT": an arithmetic
	// conjunct the planner cannot push down and evaluates row by row.
	resA, resB string
	resT       int
	attr       string // updated attribute
	val        int    // UPDATE(attr) = val
	avg        bool   // AVG(POST(Credit)) instead of COUNT(Credit = 1)
	forAttr    string // "" = no FOR; else FOR PRE(forAttr) = forVal
	forVal     int
}

func (g germanSpec) text() string {
	var b strings.Builder
	b.WriteString("USE German")
	var when []string
	if g.whenAgeGE >= 0 {
		when = append(when, fmt.Sprintf("Age >= %d", g.whenAgeGE))
	}
	if g.whenAgeLE >= 0 {
		when = append(when, fmt.Sprintf("Age <= %d", g.whenAgeLE))
	}
	if g.whenSex >= 0 {
		when = append(when, fmt.Sprintf("Sex = %d", g.whenSex))
	}
	if g.resT >= 0 {
		when = append(when, fmt.Sprintf("%s + %s >= %d", g.resA, g.resB, g.resT))
	}
	if len(when) > 0 {
		b.WriteString(" WHEN " + strings.Join(when, " AND "))
	}
	fmt.Fprintf(&b, " UPDATE(%s) = %d", g.attr, g.val)
	if g.avg {
		b.WriteString(" OUTPUT AVG(POST(Credit))")
	} else {
		b.WriteString(" OUTPUT COUNT(Credit = 1)")
	}
	if g.forAttr != "" {
		fmt.Fprintf(&b, " FOR PRE(%s) = %d", g.forAttr, g.forVal)
	}
	return b.String()
}

// truth evaluates the template against the structural equations: the rows
// WHEN selects get the intervention, every row's Credit is recomputed with
// its recorded noise, and the aggregate is taken over the rows FOR keeps.
func (g germanSpec) truth(w *prcm.World) float64 {
	rel := w.Rel
	col := func(name string) int { return rel.Schema().MustIndex(name) }
	age, sex := col("Age"), col("Sex")
	var resA, resB int
	if g.resT >= 0 {
		resA, resB = col(g.resA), col(g.resB)
	}
	n := rel.Len()
	rows := make(map[int]bool)
	for i := 0; i < n; i++ {
		r := rel.Row(i)
		ok := (g.whenAgeGE < 0 || r[age].AsInt() >= int64(g.whenAgeGE)) &&
			(g.whenAgeLE < 0 || r[age].AsInt() <= int64(g.whenAgeLE)) &&
			(g.whenSex < 0 || r[sex].AsInt() == int64(g.whenSex)) &&
			(g.resT < 0 || r[resA].AsInt()+r[resB].AsInt() >= int64(g.resT))
		if ok {
			rows[i] = true
		}
	}
	post := w.Counterfactual(prcm.Intervention{
		Attr: g.attr, Rows: rows, Fn: func(float64) float64 { return float64(g.val) },
	})
	credit := col("Credit")
	forCol := -1
	if g.forAttr != "" {
		forCol = col(g.forAttr)
	}
	good, kept := 0.0, 0.0
	for i := 0; i < n; i++ {
		if forCol >= 0 && rel.Row(i)[forCol].AsInt() != int64(g.forVal) {
			continue
		}
		kept++
		if post.Row(i)[credit].AsInt() == 1 {
			good++
		}
	}
	if g.avg {
		if kept == 0 {
			return 0
		}
		return good / kept
	}
	return good
}

// germanDomain is the largest code of each mutable German-Syn attribute.
var germanDomain = map[string]int{"Status": 3, "Savings": 3, "Housing": 2, "CreditAmount": 3}

// germanShapes are the twelve what-if shapes: with and without WHEN (one or
// two pushdown-able conjuncts, a residual one, both), with and without FOR,
// COUNT and AVG. The seed fills in the constants.
func germanShapes(rng *rand.Rand) []germanSpec {
	none := germanSpec{whenAgeGE: -1, whenAgeLE: -1, whenSex: -1, resT: -1}
	pick := func(attr string) int { return 1 + rng.Intn(germanDomain[attr]) }
	with := func(f func(*germanSpec)) germanSpec { g := none; f(&g); return g }
	shapes := []germanSpec{
		with(func(g *germanSpec) { g.attr = "Status" }),
		with(func(g *germanSpec) { g.attr = "Savings"; g.avg = true }),
		with(func(g *germanSpec) { g.attr = "Housing"; g.forAttr = "Age"; g.forVal = 1 + rng.Intn(2) }),
		with(func(g *germanSpec) { g.attr = "CreditAmount"; g.avg = true; g.forAttr = "Sex"; g.forVal = rng.Intn(2) }),
		with(func(g *germanSpec) { g.attr = "Status"; g.whenAgeGE = 1 + rng.Intn(2) }),
		with(func(g *germanSpec) {
			g.attr = "Savings"
			g.avg = true
			g.whenSex = rng.Intn(2)
			g.whenAgeLE = 1 + rng.Intn(2)
		}),
		with(func(g *germanSpec) {
			g.attr = "Housing"
			g.whenAgeGE = 1
			g.resA, g.resB, g.resT = "Status", "Savings", 2+rng.Intn(2)
		}),
		with(func(g *germanSpec) {
			g.attr = "CreditAmount"
			g.resA, g.resB, g.resT = "Status", "Housing", 2+rng.Intn(2)
		}),
		with(func(g *germanSpec) {
			g.attr = "Status"
			g.whenAgeGE = 1 + rng.Intn(2)
			g.forAttr, g.forVal = "Sex", rng.Intn(2)
		}),
		with(func(g *germanSpec) {
			g.attr = "Status"
			g.avg = true
			g.whenSex = rng.Intn(2)
			g.resA, g.resB, g.resT = "Savings", "Housing", 2+rng.Intn(2)
			g.forAttr, g.forVal = "Age", 1+rng.Intn(2)
		}),
		with(func(g *germanSpec) { g.attr = "Housing"; g.avg = true; g.whenAgeLE = 1 + rng.Intn(2) }),
		with(func(g *germanSpec) {
			g.attr = "CreditAmount"
			g.whenSex = rng.Intn(2)
			g.forAttr, g.forVal = "Age", 1+rng.Intn(2)
		}),
	}
	for i := range shapes {
		shapes[i].val = pick(shapes[i].attr)
	}
	return shapes
}

// germanTemplates returns n templates: the twelve shapes, then further
// draws of the same shapes with new constants (distinct texts, so each is
// its own cache entry).
func germanTemplates(seed int64, n int) []germanSpec {
	rng := newRNG(seed, 1)
	var out []germanSpec
	seen := map[string]bool{}
	for guard := 0; len(out) < n && guard < 64; guard++ {
		for _, g := range germanShapes(rng) {
			if t := g.text(); !seen[t] && len(out) < n {
				seen[t] = true
				out = append(out, g)
			}
		}
	}
	return out
}

// specTexts renders templates as HypeRQL.
func specTexts[T interface{ text() string }](specs []T) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.text()
	}
	return out
}

// amazonViewCols is the Figure-1 relevant view: one row per product with its
// average review rating.
const amazonView = `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality, AVG(T2.Rating) AS Rtng FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality)`

var amazonCategories = []string{"Laptop", "DSLR Camera", "Phone", "Tablet", "eBook"}

// amazonSpec is one Figure-1-shaped what-if: scale the prices of one
// category and read the ratings.
type amazonSpec struct {
	category string
	factor   float64
	count    bool // COUNT(POST(Rtng) >= 4) over all products, else AVG(POST(Rtng)) FOR the category
}

func (a amazonSpec) text() string {
	s := fmt.Sprintf("%s WHEN Category = '%s' UPDATE(Price) = %.2f * PRE(Price)", amazonView, a.category, a.factor)
	if a.count {
		return s + " OUTPUT COUNT(POST(Rtng) >= 4)"
	}
	return s + fmt.Sprintf(" OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = '%s'", a.category)
}

// truth is defined for the AVG form only: the category's mean per-product
// rating after re-pricing, competition channel included. The COUNT form has
// no structural-equation counterpart at product granularity.
func (a amazonSpec) truth(am *dataset.Amazon) (float64, bool) {
	if a.count {
		return 0, false
	}
	cat := am.CategoryIndex(a.category)
	v := am.CounterfactualCategoryAvgRating(a.category,
		func(i int) bool { return am.ProductCategory(i) == cat },
		func(p float64) float64 { return a.factor * p })
	return v, true
}

func amazonTemplates(seed int64, n int) []amazonSpec {
	rng := newRNG(seed, 2)
	factors := []float64{0.8, 0.9, 1.1, 1.2}
	var out []amazonSpec
	seen := map[string]bool{}
	for guard := 0; len(out) < n && guard < 1024; guard++ {
		a := amazonSpec{
			category: amazonCategories[rng.Intn(len(amazonCategories))],
			factor:   factors[rng.Intn(len(factors))],
			count:    len(out)%2 == 1,
		}
		if t := a.text(); !seen[t] {
			seen[t] = true
			out = append(out, a)
		}
	}
	return out
}

// appendBatches renders rows [from, from+batches*size) of rel as CSV append
// bodies of size rows each (header in schema order, as POST .../rows wants).
func appendBatches(rel *relation.Relation, from, batches, size int) []string {
	header := strings.Join(rel.Schema().Names(), ",") + "\n"
	out := make([]string, batches)
	for b := range out {
		var sb strings.Builder
		sb.WriteString(header)
		for i := from + b*size; i < from+(b+1)*size; i++ {
			for c, v := range rel.Row(i) {
				if c > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(v.String())
			}
			sb.WriteByte('\n')
		}
		out[b] = sb.String()
	}
	return out
}
