package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
)

// update rewrites EXPERIMENTS.md from the current rows:
//
//	go test -run TestFidelity ./internal/experiments -update
var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the current experiment rows")

const documentPath = "../../EXPERIMENTS.md"

// fidelityConfig is the committed scale: German-Syn (1M) at 20,000 rows (at
// 2,000 the full-data estimate is already 8 % off the truth), seed 7, and
// the exhaustive baselines capped so the package's tests stay under ten
// seconds — Figure 9's Opt-disc and GT-disc stop after six buckets (343
// combinations; eight would be 729).
var fidelityConfig = Config{Scale: 0.02, Seed: 7, MaxBruteEvals: 600}

// TestMain collects less often: the experiments churn through short-lived
// counterfactual relations over a live heap of a few megabytes, so at the
// default GOGC a quarter of the package's fourteen CPU-seconds is the
// collector (measured: 8.3–10.3 s of wall time at 100, 6.0–7.4 s at 400).
func TestMain(m *testing.M) {
	debug.SetGCPercent(400)
	os.Exit(m.Run())
}

// fidelityRows runs the eleven experiments once per test binary, side by
// side, and returns their rows per runner in All's order.
var fidelityRows = sync.OnceValues(func() ([][]Row, error) {
	rows, errs := make([][]Row, len(All)), make([]error, len(All))
	var wg sync.WaitGroup
	for i, e := range All {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], errs[i] = e.Run(fidelityConfig)
		}()
	}
	wg.Wait()
	return rows, errors.Join(errs...)
})

// table is a set of rows to look shapes up in.
type table []Row

// all returns the rows that agree with every field of like that is set
// (Exp, Dataset, Query, Arm; X when positive).
func (t table) all(like Row) table {
	var out table
	for _, r := range t {
		if r.Exp == like.Exp && (like.Dataset == "" || r.Dataset == like.Dataset) && (like.Query == "" || r.Query == like.Query) &&
			(like.Arm == "" || r.Arm == like.Arm) && (like.X <= 0 || r.X == like.X) {
			out = append(out, r)
		}
	}
	return out
}

// get returns the one row like like. A missing or ambiguous row comes back
// all-NaN, which fails every comparison written as "must hold".
func (t table) get(like Row) Row {
	if found := t.all(like); len(found) == 1 {
		return found[0]
	}
	like.Estimate, like.Truth, like.Quality, like.Spread = none, none, none, none
	return like
}

// shape collects the ways one of the paper's shapes fails to hold.
type shape struct {
	name  string
	fails []string
}

func (s *shape) hold(ok bool, format string, args ...any) {
	if !ok {
		s.fails = append(s.fails, fmt.Sprintf(format, args...))
	}
}

func (s *shape) err() error {
	if len(s.fails) == 0 {
		return nil
	}
	return fmt.Errorf("%s does not hold:\n  %s", s.name, strings.Join(s.fails, "\n  "))
}

// checks holds each runner's rows to the shapes the paper reports for it.
// Every tolerance is written here, once, beside the value measured at
// fidelityConfig.
var checks = map[string]func(table) error{
	"table1": func(t table) error {
		s := shape{name: "Table 1 (six datasets under HypeR, HypeR-NB and Indep)"}
		for _, d := range []string{"Adult", "German", "Amazon", "Student-Syn", "German-Syn (20k)", "German-Syn (1M)"} {
			for _, arm := range []string{HypeR, NB, Indep} {
				r := t.get(Row{Exp: "table1", Dataset: d, Arm: arm})
				s.hold(r.Estimate >= 0 && r.Estimate <= 1 && r.ViewRows > 0, "%s %s: estimate %v over %d view rows", d, arm, r.Estimate, r.ViewRows)
			}
		}
		s.hold(len(t.all(Row{Exp: "table1", Arm: Sampled})) == 1, "HypeR-sampled runs on German-Syn (1M) only")
		return s.err()
	},

	"fig6": func(t table) error {
		s := shape{name: "Figure 6 (HypeR-sampled converges on the full-data output as the sample grows)"}
		full := t.get(Row{Exp: "fig6a", Arm: HypeR})
		sampled := t.all(Row{Exp: "fig6a", Arm: Sampled})
		s.hold(len(sampled) == 5, "five sample sizes, got %d", len(sampled))
		if len(sampled) > 1 {
			small, large := sampled[0], sampled[len(sampled)-1]
			// Measured: |mean − full| 0.0647 → 0.0027, spread 0.1290 → 0.0428.
			// Only the endpoints are held: the steps between are not monotone
			// (EXPERIMENTS.md, "Not reproduced at this scale").
			s.hold(math.Abs(large.Estimate-full.Estimate) < math.Abs(small.Estimate-full.Estimate),
				"|mean − full| at %d rows (%.4f) is not below that at %d rows (%.4f)",
				large.X, math.Abs(large.Estimate-full.Estimate), small.X, math.Abs(small.Estimate-full.Estimate))
			s.hold(large.Spread < small.Spread, "spread at %d rows (%.4f) is not below that at %d rows (%.4f)",
				large.X, large.Spread, small.X, small.Spread)
		}
		for _, r := range t.all(Row{Exp: "fig6b", Arm: Sampled}) {
			s.hold(r.SampledRows == fidelityConfig.sampleCap(), "Figure 6b at x = %d: HypeR-sampled trained on %d rows, not its cap", r.X, r.SampledRows)
		}
		return s.err()
	},

	"fig8": func(t table) error {
		s := shape{name: "Figure 8 (Status and CreditHistory dominate German; Workclass is weak on Adult)"}
		gap := func(exp, attr string) float64 { return t.get(Row{Exp: exp, Query: attr + " gap"}).Estimate }
		// Measured gaps: Status 0.495, CreditHistory 0.420 vs Housing 0.021, Investment 0.103.
		for _, strong := range []string{"Status", "CreditHistory"} {
			for _, weak := range []string{"Housing", "Investment"} {
				s.hold(gap("fig8a", strong) > gap("fig8a", weak), "German: %s gap %.3f does not exceed %s gap %.3f",
					strong, gap("fig8a", strong), weak, gap("fig8a", weak))
			}
		}
		// Measured: Workclass 0.170 vs MaritalStatus 0.335, Occupation 0.271, Education 0.510.
		for _, other := range []string{"MaritalStatus", "Occupation", "Education"} {
			s.hold(gap("fig8b", "Workclass") < gap("fig8b", other), "Adult: Workclass gap %.3f is not below %s gap %.3f",
				gap("fig8b", "Workclass"), other, gap("fig8b", other))
		}
		return s.err()
	},

	"fig9": func(t table) error {
		s := shape{name: "Figure 9 (how-to quality within 10% of the optimum from four buckets up; IP work linear, Opt-disc's a power of the buckets)"}
		last := 0.0
		for _, x := range []int{1, 2, 4, 6, 8, 10} {
			ip := t.get(Row{Exp: "fig9", Arm: HypeR, X: x})
			// The paper's bound, not a fitted one. Measured: 0.738, 0.884, 0.963, 0.985, 0.989, 0.993.
			s.hold(x < 4 || ip.Quality >= 0.90, "quality %.3f at %d buckets is below 0.90", ip.Quality, x)
			s.hold(ip.Quality >= last, "quality falls from %.3f to %.3f at %d buckets", last, ip.Quality, x)
			last = ip.Quality
			s.hold(ip.WhatIfEvals == 3*x, "the IP evaluates %d what-ifs at %d buckets, want one per bucket and attribute (%d)", ip.WhatIfEvals, x, 3*x)
			// Opt-disc tries every bucket or "no change" for each of three
			// attributes; fidelityConfig stops it past 600 combinations.
			opt, combos := t.all(Row{Exp: "fig9", Arm: OptDisc, X: x}), (x+1)*(x+1)*(x+1)
			if combos > fidelityConfig.MaxBruteEvals {
				s.hold(len(opt) == 0, "Opt-disc ran at %d buckets (%d combinations) past the cap", x, combos)
			} else {
				s.hold(len(opt) == 1 && opt[0].WhatIfEvals == combos, "Opt-disc at %d buckets: %v, want %d evaluations", x, opt, combos)
			}
		}
		return s.err()
	},

	"fig10": func(t table) error {
		s := shape{name: "Figure 10 (HypeR and HypeR-NB within 5% of the ground truth, Indep biased)"}
		// Measured worst: HypeR 4.7 % (CreditAmount), HypeR-NB 4.8 % (Status),
		// Student-Syn HypeR 2.3 % (Assignment).
		const within = 0.05
		for _, attr := range []string{"Status", "Savings", "Housing", "CreditAmount"} {
			for _, arm := range []string{HypeR, NB} {
				r := t.get(Row{Exp: "fig10a", Query: attr, Arm: arm})
				s.hold(r.RelErr() <= within, "German-Syn %s: %s %.4f is %.1f %% off the truth %.4f", attr, arm, r.Estimate, 100*r.RelErr(), r.Truth)
			}
		}
		for _, attr := range []string{"Assignment", "Attendance", "Announcements", "HandRaised", "Discussion"} {
			r := t.get(Row{Exp: "fig10b", Query: attr, Arm: HypeR})
			s.hold(r.RelErr() <= within, "Student-Syn %s: HypeR %.2f is %.1f %% off the truth %.2f", attr, r.Estimate, 100*r.RelErr(), r.Truth)
		}
		// Measured: 16.4 % on Status (0.925 vs 0.794), 34.7 % on Assignment (82.2 vs 61.0).
		const biased = 0.10
		for _, r := range []Row{t.get(Row{Exp: "fig10a", Query: "Status", Arm: Indep}), t.get(Row{Exp: "fig10b", Query: "Assignment", Arm: Indep})} {
			s.hold(r.RelErr() > biased, "%s %s: Indep %.4f is only %.1f %% off the truth %.4f", r.Dataset, r.Query, r.Estimate, 100*r.RelErr(), r.Truth)
		}
		return s.err()
	},

	"fig11": func(t table) error {
		s := shape{name: "Figure 11 (IP candidates and evaluations grow by a constant per attribute, Opt-HowTo's multiply)"}
		s.hold(len(t.all(Row{Exp: "fig11a"})) == 6, "Figure 11a has HypeR and Indep at 0, 5 and 10 FOR attributes")
		for _, k := range []int{2, 3, 4, 6, 8} {
			// Three values per attribute: 6 / 9 / 12 candidates against 16 / 64 / 256 combinations.
			ip := t.get(Row{Exp: "fig11b", Arm: HypeR, X: k})
			s.hold(ip.Candidates == 3*k && ip.WhatIfEvals == 3*k, "IP at %d attributes: %d candidates, %d evaluations, want %d", k, ip.Candidates, ip.WhatIfEvals, 3*k)
			opt := t.all(Row{Exp: "fig11b", Arm: OptHowTo, X: k})
			if k > 4 {
				s.hold(len(opt) == 0, "Opt-HowTo ran at %d attributes", k)
			} else {
				s.hold(len(opt) == 1 && opt[0].WhatIfEvals == 1<<(2*k), "Opt-HowTo at %d attributes: %v, want %d evaluations", k, opt, 1<<(2*k))
			}
		}
		return s.err()
	},

	"fig12": func(t table) error {
		s := shape{name: "Figure 12 (HypeR-sampled's training rows are flat past the cap; the IP's work does not grow with the data)"}
		limit := fidelityConfig.sampleCap()
		for _, r := range t.all(Row{Exp: "fig12a", Arm: Sampled}) {
			s.hold(r.SampledRows == min(r.X, limit), "%s at %d rows trained on %d, want %d", r.Query, r.X, r.SampledRows, min(r.X, limit))
		}
		for _, r := range t.all(Row{Exp: "fig12a", Arm: HypeR}) {
			s.hold(r.SampledRows == r.X, "HypeR %s at %d rows trained on %d", r.Query, r.X, r.SampledRows)
		}
		for _, r := range t.all(Row{Exp: "fig12b"}) {
			if r.Arm == OptHowTo {
				// 5 · 5 · 4 · 5 values-or-no-change, whatever the size.
				s.hold(r.WhatIfEvals == 500 && r.X <= limit, "Opt-HowTo at %d rows: %d evaluations", r.X, r.WhatIfEvals)
			} else {
				s.hold(r.WhatIfEvals == 15 && r.Candidates == 15, "%s at %d rows: %d candidates, %d evaluations, want 15", r.Arm, r.X, r.Candidates, r.WhatIfEvals)
			}
		}
		s.hold(len(t.all(Row{Exp: "fig12b", Arm: HypeR})) == 5, "Figure 12b has five sizes")
		return s.err()
	},

	"usecases": func(t table) error {
		s := shape{name: "Amazon use case (an identity update reproduces the data; cheaper products rate better)"}
		sweep := t.all(Row{Exp: "usecase-amazon"})
		s.hold(len(sweep) == 4, "four price factors, got %d", len(sweep))
		for i, r := range sweep {
			if r.Query == "prices × 1" {
				// Measured 0.0000: the estimate and the per-product truth are both 0.6560.
				s.hold(math.Abs(r.Estimate-r.Truth) <= 0.005, "prices unchanged: estimate %.4f vs truth %.4f", r.Estimate, r.Truth)
			}
			if i > 0 {
				s.hold(r.Estimate > sweep[i-1].Estimate && r.Truth > sweep[i-1].Truth,
					"%s: estimate %.4f / truth %.4f do not both rise from %.4f / %.4f", r.Query, r.Estimate, r.Truth, sweep[i-1].Estimate, sweep[i-1].Truth)
			}
		}
		s.hold(len(t.all(Row{Exp: "usecase-german"})) == 8 && len(t.all(Row{Exp: "usecase-adult"})) == 4 &&
			len(t.all(Row{Exp: "usecase-amazon-brands"})) == 5, "the German, Adult and per-brand tables are complete")
		return s.err()
	},

	"backdoor": func(t table) error {
		s := shape{name: "Section 5.5 (HypeR-NB's backdoor set is a strict superset of the minimal one)"}
		minimal, all := t.get(Row{Exp: "backdoor", Arm: HypeR}).Backdoor, t.get(Row{Exp: "backdoor", Arm: NB}).Backdoor
		s.hold(slices.Equal(minimal, []string{"Age", "Sex"}), "minimal set %v, want [Age Sex]", minimal)
		s.hold(len(all) > len(minimal), "HypeR-NB conditions on %v, no more than %v", all, minimal)
		for _, a := range minimal {
			s.hold(slices.Contains(all, a), "HypeR-NB's set %v lacks %s", all, a)
		}
		return s.err()
	},

	"howto-quality": func(t table) error {
		s := shape{name: "Section 5.4 (the IP picks the ground-truth Opt-HowTo's updates; Attendance wins on Student-Syn)"}
		ip := t.get(Row{Exp: "howto-quality", Dataset: "German-Syn (20k)", Arm: HypeR})
		opt := t.get(Row{Exp: "howto-quality", Arm: GTHowTo})
		s.hold(ip.Updates == opt.Updates && ip.Updates != "", "IP chose %s, the ground-truth optimum is %s", ip.Updates, opt.Updates)
		s.hold(ip.Quality == 1, "IP quality %.4f, want the optimum", ip.Quality)
		st := t.get(Row{Exp: "howto-quality", Dataset: "Student-Syn", Arm: HypeR})
		s.hold(strings.Contains(st.Updates, "Attendance"), "Student-Syn at budget one chose %s", st.Updates)
		return s.err()
	},

	"ablation": func(t table) error {
		s := shape{name: "Ablations (Proposition 1: blocks change no value; every estimator within 0.10 of the truth)"}
		with, without := t.get(Row{Exp: "ablation-blocks", Arm: HypeR}), t.get(Row{Exp: "ablation-blocks", Arm: NoBlocks})
		s.hold(with.Estimate == without.Estimate, "blocks on/off delta %g, want exactly 0", with.Estimate-without.Estimate)
		s.hold(with.Blocks > 1 && without.Blocks == 1, "blocks: %d with, %d without", with.Blocks, without.Blocks)
		for _, kind := range []string{Freq, Forest, Linear} {
			r := t.get(Row{Exp: "ablation-estimators", Arm: kind})
			// Measured: freq 0.0655, forest 0.0322, linear 0.0655 (2,000 rows).
			s.hold(math.Abs(r.Estimate-r.Truth) <= 0.10, "%s: %.4f vs truth %.4f", kind, r.Estimate, r.Truth)
		}
		s.hold(len(t.all(Row{Exp: "ablation-cache"})) == 2, "the cache ablation has a cold and a warm row")
		return s.err()
	},
}

// checkSampled is the count form of "HypeR-sampled samples": wherever the
// arm reports its training rows they are fewer than the view's, except on
// Figure 12's datasets no larger than the cap.
func checkSampled(t table) error {
	s := shape{name: "HypeR-sampled (trains on fewer rows than the view holds)"}
	n := 0
	for _, r := range t {
		if r.Arm == Sampled && r.ViewRows > 0 && !(r.Exp == "fig12a" && r.X <= fidelityConfig.sampleCap()) {
			n++
			s.hold(r.SampledRows < r.ViewRows, "%s %s x=%d: trained on %d of %d view rows", r.Exp, r.Query, r.X, r.SampledRows, r.ViewRows)
		}
	}
	s.hold(n > 0, "no HypeR-sampled row reports its training rows")
	return s.err()
}

// checkDocument compares the committed EXPERIMENTS.md with the rendering of
// the current rows.
func checkDocument(committed, current []byte) error {
	if bytes.Equal(committed, current) {
		return nil
	}
	at := 0
	for at < len(committed) && at < len(current) && committed[at] == current[at] {
		at++
	}
	line := 1 + bytes.Count(current[:at], []byte("\n"))
	return fmt.Errorf("EXPERIMENTS.md differs from the current rows at line %d; if the change to the estimates is intended, regenerate it with\n  go test -run TestFidelity ./internal/experiments -update\nand review the diff", line)
}

func flatten(per [][]Row) table {
	var all table
	for _, rows := range per {
		all = append(all, rows...)
	}
	return all
}

// TestFidelity holds the rows of every experiment to the paper's shapes and
// to the committed EXPERIMENTS.md.
func TestFidelity(t *testing.T) {
	per, err := fidelityRows()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			if err := checks[e.Name](per[i]); err != nil {
				t.Error(err)
			}
		})
	}
	t.Run("sampled", func(t *testing.T) {
		if err := checkSampled(flatten(per)); err != nil {
			t.Error(err)
		}
	})
	t.Run("document", func(t *testing.T) {
		current := document(per)
		if *update {
			if err := os.WriteFile(documentPath, current, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		committed, err := os.ReadFile(documentPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDocument(committed, current); err != nil {
			t.Error(err)
		}
	})
}

// TestFidelityDetects feeds the checks rows doctored the way a broken
// estimator would produce them; each must fail naming its shape.
func TestFidelityDetects(t *testing.T) {
	per, err := fidelityRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		check  func(table) error
		doctor func(rows table)
		want   string
	}{
		{"Indep's estimates in the HypeR arm", checks["fig10"], func(rows table) {
			for i := range rows {
				if rows[i].Arm == HypeR {
					rows[i].Estimate = rows.get(Row{Exp: rows[i].Exp, Query: rows[i].Query, Arm: Indep}).Estimate
				}
			}
		}, "Figure 10"},
		{"Housing and Status swapped", checks["fig8"], func(rows table) {
			swap := map[string]string{"Status gap": "Housing gap", "Housing gap": "Status gap"}
			for i := range rows {
				if to, ok := swap[rows[i].Query]; ok {
					rows[i].Query = to
				}
			}
		}, "Figure 8"},
		{"a block delta of 1e-9", checks["ablation"], func(rows table) {
			for i := range rows {
				if rows[i].Arm == NoBlocks {
					rows[i].Estimate += 1e-9
				}
			}
		}, "Proposition 1"},
		{"quality 0.85 at four buckets", checks["fig9"], func(rows table) {
			for i := range rows {
				if rows[i].Arm == HypeR && rows[i].X == 4 {
					rows[i].Quality = 0.85
				}
			}
		}, "Figure 9"},
		{"a sample as large as the view", checkSampled, func(rows table) {
			for i := range rows {
				if rows[i].Exp == "fig10a" && rows[i].Arm == Sampled {
					rows[i].SampledRows = rows[i].ViewRows
					return
				}
			}
		}, "HypeR-sampled"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows := slices.Clone(flatten(per))
			if err := c.check(rows); err != nil {
				t.Fatalf("the check fails before doctoring: %v", err)
			}
			c.doctor(rows)
			err := c.check(rows)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("doctored rows passed, or failed without naming %q: %v", c.want, err)
			}
			t.Log(err)
		})
	}
	t.Run("one digit of EXPERIMENTS.md", func(t *testing.T) {
		current := document(per)
		edited := bytes.Replace(current, []byte("0.7873"), []byte("0.7874"), 1)
		if bytes.Equal(edited, current) {
			t.Fatal("the document lacks Figure 10a's HypeR estimate on Status")
		}
		if err := checkDocument(edited, current); err == nil || !strings.Contains(err.Error(), "EXPERIMENTS.md") {
			t.Errorf("a hand-edited digit passed: %v", err)
		}
	})
}

// documentHead opens EXPERIMENTS.md.
const documentHead = `# EXPERIMENTS — the paper's Section 5, as this repository reproduces it

Generated — do not edit. These are the rows ` + "`internal/experiments`" + ` returns at seed 7
and scale 0.02 (German-Syn "1M" is 20,000 rows; every dataset the paper sizes
below 25,000 rows sits at the 500-row floor, where single estimates are noisy),
rendered by the same ` + "`Render`" + ` that ` + "`go run ./cmd/hyperbench -exp all -scale 0.02`" + `
prints, minus the machine-dependent runtimes. ` + "`TestFidelity`" + ` holds the paper's
shapes on these rows (DESIGN.md, "Substitutions", lists claim → check →
tolerance) and compares this file byte for byte, so a change that moves any
estimate shows up here as a diff to review:

    go test -run TestFidelity ./internal/experiments -update

Columns: *estimate* is the query output (a COUNT as a share of the view's
rows) or, for a how-to, the objective the method expects of its updates;
*truth* is the same quantity under the generator's structural equations with
the recorded noise (for a how-to, of the updates it chose) and *err %* their
relative distance; *quality* is a how-to's truth over the ground-truth
optimum's; *view*, *sampled*, *models*, *blocks*, *backdoor* are the engine's
view rows, training rows, fitted regressors, independent blocks and
conditioning set; *candidates*, *evals*, *ip nodes* are howto's candidate
updates, what-if evaluations and branch-and-bound nodes. HypeR-sampled trains
on at most 2,000 rows here (the paper's 100k cap, scaled); its accuracy at
that size is recorded, not held to the 5 % the full-data arms are held to. The
exhaustive baselines are capped at 600 update combinations, so Figure 9's
Opt-disc and GT-disc stop after six buckets.

`

// findings are the shapes the evaluation does not reproduce at this scale:
// recorded with their rows, asserted nowhere.
var findings = []struct {
	prose string
	rows  func(table) table
}{
	{`**Figure 11a as counts.** The figure's claim is that HypeR's cost grows with
the attributes in FOR while Indep's stays flat. As counts it cannot be held:
the engine reports one trained model at 0, 5 and 10 attributes for both arms
and exposes no feature count. Worse, the conjuncts added are always true
(` + "`PRE(x) >= 0`" + `), so the output should not move — and HypeR's estimate drifts
downwards with every batch of them. Open accuracy item (ROADMAP).`,
		func(t table) table { return t.all(Row{Exp: "fig11a"}) }},
	{`**IP ≡ Opt-HowTo beyond Section 5.4.** On Figure 11b's queries the IP's choice
equals the what-if exhaustive search's at two attributes and differs at three
and four: the IP maximises a sum of per-attribute deltas (Equations 7–9) where
the exhaustive search evaluates the joint update, so the IP both picks more
updates and expects more of them (in Figure 12b and Section 5.4 its objective
exceeds the whole relation). Equality is asserted only on the Section 5.4
German-Syn query, against the ground-truth optimum.`,
		func(t table) table {
			return slices.DeleteFunc(t.all(Row{Exp: "fig11b"}), func(r Row) bool { return r.X > 4 })
		}},
	{`**Figure 6a, step by step.** The mean's distance from the full-data output and
the spread across seeds both shrink from the smallest to the largest sample,
which is asserted, but not at every step between: the cell
` + "`Status = 3 ∧ Age = 0 ∧ Sex = 0`" + ` holds about 6 of the 20,000 rows, so even half
the data leaves ± 4 points.`,
		func(t table) table { return t.all(Row{Exp: "fig6a"}) }},
	{`**Amazon price effect.** Against the per-product ground truth (the share of
products whose mean rating is at least 4 — the quantity the query estimates)
HypeR is exact when prices do not move and under-estimates the effect of a
price change by 12–15 points elsewhere. Only the identity row and the
direction are asserted. Open accuracy item (ROADMAP).`,
		func(t table) table { return t.all(Row{Exp: "usecase-amazon"}) }},
}

// document renders EXPERIMENTS.md from the rows of each runner.
func document(per [][]Row) []byte {
	var b bytes.Buffer
	tables := func(rows []Row) {
		rows = slices.Clone(rows)
		for i := range rows {
			rows[i].Runtime = 0
		}
		b.WriteString("```text\n")
		var text bytes.Buffer
		Render(&text, rows) // a bytes.Buffer does not fail
		b.Write(bytes.TrimRight(text.Bytes(), "\n"))
		b.WriteString("\n```\n\n")
	}
	b.WriteString(documentHead)
	for i, e := range All {
		b.WriteString("## " + e.Name + "\n\n")
		tables(per[i])
	}
	b.WriteString("## Not reproduced at this scale\n\n")
	for _, f := range findings {
		b.WriteString(f.prose + "\n\n")
		tables(f.rows(flatten(per)))
	}
	return append(bytes.TrimRight(b.Bytes(), "\n"), '\n')
}
