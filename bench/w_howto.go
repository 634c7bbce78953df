package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"hyper"
	"hyper/internal/dataset"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
	"hyper/internal/ip"
	"hyper/internal/ml"
	"hyper/internal/prcm"
	"hyper/internal/sqlmini"
)

// howToIP is howto_ip: in-process how-to queries, two over German-Syn for
// every one over Amazon-Syn. Each query enumerates 13-15 candidate updates,
// scores every candidate with a what-if over one cache private to the query
// (an intra-query memo: the session has no shared cache), then solves the
// integer program.
type howToIP struct {
	seed    int64
	german  *dataset.Single
	amazon  *dataset.Amazon
	queries []howToQuery

	// truthWorld is a prefix of the German data small enough to brute-force
	// the structural-equation optimum over every candidate combination.
	truthWorld *prcm.World

	refs []*hyper.HowToResult // per query, filled by verify
}

type howToQuery struct {
	src     string
	amazon  bool
	forAttr string // German: FOR PRE(forAttr) = forVal restricts the objective
	forVal  int
	whenCat string // Amazon: WHEN Category = whenCat restricts the update
}

func (q howToQuery) text() string { return q.src }

const howToTruthRows = 1000

func setupHowToIP(cfg runConfig) (workload, error) {
	ds := dataSeed(cfg.seed)
	w := &howToIP{
		seed:   cfg.seed,
		german: dataset.GermanSyn(cfg.rows(howtoGermanRows), ds),
		amazon: dataset.AmazonSyn(cfg.rows(howtoProducts), joinReviewsPer, ds),
	}
	truthRows := howToTruthRows
	if n := w.german.Rel().Len(); n < truthRows {
		truthRows = n
	}
	// The generator draws rows in order from one stream, so a shorter run
	// with the same seed is exactly the prefix of the longer one.
	w.truthWorld = dataset.GermanSyn(truthRows, ds).World
	w.queries = howToQueries(newRNG(cfg.seed, 3))
	// One untimed German and one Amazon query end set-up (first-touch costs).
	for _, q := range w.queries[1:3] {
		if _, err := w.session(q, 0).HowTo(q.src); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// howToQueries is one round of the mix: German, German, Amazon, twice.
func howToQueries(rng *rand.Rand) []howToQuery {
	const g = "USE German HOWTOUPDATE Status, Savings, Housing, CreditAmount"
	const obj = " TOMAXIMIZE COUNT(Credit = 1)"
	age, sex := 1+rng.Intn(3), rng.Intn(2)
	cat := amazonCategories[rng.Intn(len(amazonCategories))]
	const a = amazonView + " %sHOWTOUPDATE Price, Color LIMIT 300 <= POST(Price) <= 1200 TOMAXIMIZE AVG(POST(Rtng))"
	return []howToQuery{
		{src: g + obj},
		{src: g + " LIMIT UPDATES <= 2" + obj},
		{src: fmt.Sprintf(a, ""), amazon: true},
		{src: fmt.Sprintf("%s%s FOR PRE(Age) = %d", g, obj, age), forAttr: "Age", forVal: age},
		{src: fmt.Sprintf("%s LIMIT UPDATES <= 2%s FOR PRE(Sex) = %d", g, obj, sex), forAttr: "Sex", forVal: sex},
		{src: fmt.Sprintf(a, "WHEN Category = '"+cat+"' "), amazon: true, whenCat: cat},
	}
}

func (w *howToIP) templates() int { return len(w.queries) }

func (w *howToIP) session(q howToQuery, shards int) *hyper.Session {
	var s *hyper.Session
	if q.amazon {
		s = hyper.NewSession(w.amazon.DB, w.amazon.Model)
	} else {
		s = hyper.NewSession(w.german.DB, w.german.Model)
	}
	s.SetPlanCache(hyper.NewPlanCache(0))
	s.SetOptions(hyper.Options{Seed: w.seed, Shards: shards})
	return s
}

// Slots of opSample.aux used by howto_ip.
const (
	auxCandidates = iota
	auxWhatIfEvals
	auxIPNodes
)

func choiceSig(r *hyper.HowToResult) uint64 {
	h := fnv.New64a()
	for _, c := range r.Choices {
		h.Write([]byte(c.String()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func (w *howToIP) op(_, tmpl int, m mode, rec *spanRecorder) opSample {
	s := opSample{tmpl: tmpl, mode: m}
	q := w.queries[tmpl]
	sess := w.session(q, 0)
	r := rec
	opID := r.newOp()
	root := r.start(opID, -1, "op")
	ctx, finish := observed(m, "howto")
	call := r.start(opID, root, "hyper.howto")
	t0 := time.Now()
	res, err := sess.HowToContext(ctx, q.src, nil)
	s.ms = ms(time.Since(t0))
	r.end(call)
	tree, cost := finish()
	r.graft(opID, call, tree)
	r.end(root)
	if err != nil {
		s.fail = true
		return s
	}
	s.value, s.sum, s.sig = res.Objective, res.Base, choiceSig(res)
	s.total = ms(res.Total)
	if cost != nil {
		// The meter sums each stage over the query's candidate what-ifs, which
		// the scoring pool runs in parallel: stage sums are work, not elapsed
		// time, and may exceed the query's total.
		st := cost.StagesMs
		s.staged = true
		s.view, s.block, s.plan, s.train = st["view"], st["blocks"], st["plan"], st["train"]
		s.eval = st["eval"] + st["fold"]
		s.models = int(cost.FitsTrained)
	}
	s.aux[auxCandidates] = float64(res.Candidates)
	s.aux[auxWhatIfEvals] = float64(res.WhatIfEvals)
	s.aux[auxIPNodes] = float64(res.IPNodes)
	return s
}

// verify re-evaluates every query on a serial (Shards=1) session and holds
// every logged answer — objective, base and the chosen updates — to it.
func (w *howToIP) verify(samples []opSample) (checks, failed int, notes []string) {
	n := len(w.queries)
	refs := make([]*hyper.HowToResult, n)
	parallelEach(n, func(i int) {
		if r, err := w.session(w.queries[i], 1).HowTo(w.queries[i].src); err == nil {
			refs[i] = r
		}
	})
	for i, r := range refs {
		checks++
		if r == nil {
			failed++
			notes = append(notes, fmt.Sprintf("query %d: serial reference failed", i))
		}
	}
	for _, s := range samples {
		if s.fail {
			continue
		}
		if r := refs[s.tmpl]; r == nil || s.value != r.Objective || s.sum != r.Base || s.sig != choiceSig(r) {
			checks++
			failed++
			notes = append(notes, fmt.Sprintf("query %d: a measured answer differs from the serial reference", s.tmpl))
		}
	}
	w.refs = refs
	return checks, failed, notes
}

// truth scores HypeR's chosen updates by the structural equations and
// compares with the best combination of the same candidates under the same
// equations (howto.BruteForceWith): the error is 100 minus the chosen
// updates' ground-truth value as a percentage of that optimum.
func (w *howToIP) truth() (float64, int, bool) {
	refs := w.refs
	if refs == nil {
		return 0, 0, true
	}
	gaps := make([]float64, len(w.queries))
	credit := newCreditMemo(w.truthWorld)
	parallelEach(len(w.queries), func(i int) {
		gaps[i] = -1
		q := w.queries[i]
		parsed, err := hyperql.ParseHowTo(q.src)
		if err != nil || refs[i] == nil {
			return
		}
		db := w.german.DB
		eval := func(u []hyperql.UpdateSpec) (float64, error) { return credit.objective(u, q), nil }
		if q.amazon {
			db = w.amazon.DB
			eval = func(u []hyperql.UpdateSpec) (float64, error) { return w.amazonObjective(u, q), nil }
		}
		cands, err := howto.Candidates(db, parsed, howto.Options{})
		if err != nil {
			return
		}
		opt, err := howto.BruteForceWith(parsed, cands, eval)
		if err != nil || opt.Objective == 0 {
			return
		}
		got, _ := eval(refs[i].Updates())
		gaps[i] = 100 - 100*got/opt.Objective
	})
	return truthVerdict(gaps, howToTolerancePct)
}

// howToTolerancePct is how far below the ground-truth optimum the chosen
// update sets may score on average and still count as correct answers.
const howToTolerancePct = 25

// creditMemo caches the post-update Credit column per update set: the four
// German queries share their candidate combinations and differ only in
// which rows the objective counts.
type creditMemo struct {
	w    *prcm.World
	mu   sync.Mutex
	post map[string][]bool
}

func newCreditMemo(w *prcm.World) *creditMemo {
	return &creditMemo{w: w, post: make(map[string][]bool)}
}

func (c *creditMemo) objective(updates []hyperql.UpdateSpec, q howToQuery) float64 {
	keys := make([]string, len(updates))
	for i, u := range updates {
		keys[i] = u.String()
	}
	sort.Strings(keys)
	key := strings.Join(keys, ";")
	c.mu.Lock()
	good, ok := c.post[key]
	c.mu.Unlock()
	if !ok {
		ivs := make([]prcm.Intervention, len(updates))
		for i, u := range updates {
			ivs[i] = prcm.Intervention{Attr: u.Attr, Fn: func(pre float64) float64 {
				return u.Apply(hyper.Float(pre)).AsFloat()
			}}
		}
		post := c.w.Counterfactual(ivs...)
		ci := post.Schema().MustIndex("Credit")
		good = make([]bool, post.Len())
		for i := range good {
			good[i] = post.Row(i)[ci].AsInt() == 1
		}
		c.mu.Lock()
		c.post[key] = good
		c.mu.Unlock()
	}
	forCol := -1
	if q.forAttr != "" {
		forCol = c.w.Rel.Schema().MustIndex(q.forAttr)
	}
	n := 0.0
	for i, g := range good {
		if g && (forCol < 0 || c.w.Rel.Row(i)[forCol].AsInt() == int64(q.forVal)) {
			n++
		}
	}
	return n
}

// amazonObjective is the review-level mean rating after re-pricing the
// selected products (Color does not enter the rating equation).
func (w *howToIP) amazonObjective(updates []hyperql.UpdateSpec, q howToQuery) float64 {
	price := func(p float64) float64 { return p }
	for _, u := range updates {
		if u.Attr == "Price" {
			price = func(p float64) float64 { return u.Apply(hyper.Float(p)).AsFloat() }
		}
	}
	var sel func(int) bool
	if q.whenCat != "" {
		cat := w.amazon.CategoryIndex(q.whenCat)
		sel = func(i int) bool { return w.amazon.ProductCategory(i) == cat }
	}
	avg, _ := w.amazon.CounterfactualAvgRating(sel, price)
	return avg
}

func (w *howToIP) probes(out map[string]float64, samples []opSample, rec *spanRecorder) {
	probeHyperQL(out, w.german.DB, specTexts(w.queries))

	var cands, evals, nodes, totals []float64
	for _, s := range samples {
		if !s.fail {
			cands = append(cands, s.aux[auxCandidates])
			evals = append(evals, s.aux[auxWhatIfEvals])
			nodes = append(nodes, s.aux[auxIPNodes])
			totals = append(totals, s.total)
		}
	}
	out["howto.candidates_per_op"] = mean(cands)
	out["howto.whatif_evals_per_op"] = mean(evals)
	out["ip.nodes_per_op"] = mean(nodes)
	out["engine.total_ms"] = median(totals)
	out["engine.unattributed_ms"] = 0 // stage sums are parallel work here; the remainder is howto.score_ms

	var enumMs []float64
	for _, q := range w.queries {
		parsed, err := hyperql.ParseHowTo(q.src)
		if err != nil {
			continue
		}
		db := w.german.DB
		if q.amazon {
			db = w.amazon.DB
		}
		probeSpan(rec, "howto.candidates", func() {
			enumMs = append(enumMs, timeMs(3, nil, func() { _, _ = howto.Candidates(db, parsed, howto.Options{}) }))
		})
	}
	out["howto.candidates_ms"] = median(enumMs)
	out["ip.solve_us"] = 1000 * timeMs(20, nil, func() { _, _ = knapsackModel(w.seed, int(mean(cands)+0.5)).Solve() })
	out["howto.score_ms"] = median(totals) - out["howto.candidates_ms"] - out["ip.solve_us"]/1000

	// The how-to engine scores continuous updates with the ridge regressor;
	// time one fit over the Amazon view, the only continuous one here.
	parsed, err := hyperql.ParseHowTo(w.queries[2].src)
	if err != nil {
		return
	}
	view, err := sqlmini.RunSelect(w.amazon.DB, parsed.Use.Select, "RelevantView")
	if err != nil {
		return
	}
	fr := ml.NewFrame(ml.NewEncoder(view, []string{"Price", "Color", "Category", "Brand", "Quality"}), view)
	y := labelColumn(view, "Rtng")
	out["ml.linear_fit_ms"] = timeMs(5, nil, func() { ml.FitLinearFrame(fr, nil, y, 1e-6) })
}

// knapsackModel is a seeded multiple-choice knapsack of the how-to IP's
// size: vars candidates in four at-most-one groups with a budget of two.
func knapsackModel(seed int64, vars int) *ip.Model {
	rng := newRNG(seed, 4)
	m := ip.NewModel()
	groups := make([][]int, 4)
	all := make([]int, vars)
	ones := make([]float64, vars)
	for i := 0; i < vars; i++ {
		v := m.AddVar(fmt.Sprintf("x%d", i), rng.Float64()*100-20)
		groups[i%4] = append(groups[i%4], v)
		all[i], ones[i] = v, 1
	}
	for _, g := range groups {
		if len(g) > 0 {
			_ = m.AddAtMostOne(g)
		}
	}
	_ = m.AddLE(all, ones, 2)
	return m
}

func (w *howToIP) close() {}
