package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// titles names each table of the evaluation by its Row.Exp.
var titles = map[string]string{
	"table1":                "Table 1: a Count what-if query per dataset",
	"fig6a":                 "Figure 6a: HypeR-sampled output vs training-sample size x (mean ± standard deviation over five seeds)",
	"fig6b":                 "Figure 6b: forest training on x sampled rows (HypeR) vs on the capped sample (HypeR-sampled)",
	"fig8a":                 "Figure 8a: German — share of good credit with each attribute set to its minimum and maximum",
	"fig8b":                 "Figure 8b: Adult — share of high income with each attribute set to its minimum and maximum",
	"fig9":                  "Figure 9: how-to quality and work vs discretization buckets x",
	"fig10a":                "Figure 10a: German-Syn (1M) — share of good credit with each attribute set to its maximum x",
	"fig10b":                "Figure 10b: Student-Syn — average grade with each attribute set to its maximum x",
	"fig11a":                "Figure 11a: what-if cost vs x always-true attributes in FOR",
	"fig11b":                "Figure 11b: how-to cost vs x attributes in HOWTOUPDATE",
	"fig12a":                "Figure 12a: what-if cost vs dataset size x (five queries)",
	"fig12b":                "Figure 12b: how-to cost vs dataset size x",
	"usecase-german":        "Use case (German, Figure 7a): share with good credit after the update",
	"usecase-adult":         "Use case (Adult, Figure 7b): share with income > 50K after the update",
	"usecase-amazon":        "Use case (Amazon): share of products rated >= 4 on average as every price moves",
	"usecase-amazon-brands": "Use case (Amazon): average-rating lift from a 20% price cut, by brand",
	"backdoor":              "Section 5.5: minimal backdoor set vs conditioning on every attribute",
	"howto-quality":         "Section 5.4: the IP's updates vs the ground-truth Opt-HowTo",
	"ablation-blocks":       "Ablation 1: block-independent decomposition (Proposition 1: no value may change)",
	"ablation-estimators":   "Ablation 2: estimator choice",
	"ablation-cache":        "Ablation 3: estimator cache across same-structure queries (forest)",
}

// columns are Render's, in order; a cell is empty when the row does not
// carry the quantity, and a column no row of a table fills is dropped.
var columns = []struct {
	head string
	cell func(Row) string
}{
	{"dataset", func(r Row) string { return r.Dataset }},
	{"query", func(r Row) string { return r.Query }},
	{"x", func(r Row) string { return count(r.X) }},
	{"arm", func(r Row) string { return r.Arm }},
	{"estimate", func(r Row) string { return real4(r.Estimate) }},
	{"± seeds", func(r Row) string { return nonzero4(r.Spread) }},
	{"truth", func(r Row) string { return real4(r.Truth) }},
	{"err %", func(r Row) string {
		if math.IsNaN(r.Truth) {
			return ""
		}
		return strconv.FormatFloat(100*r.RelErr(), 'f', 1, 64)
	}},
	{"quality", func(r Row) string { return nonzero4(r.Quality) }},
	{"view", func(r Row) string { return count(r.ViewRows) }},
	{"sampled", func(r Row) string { return count(r.SampledRows) }},
	{"models", func(r Row) string { return count(r.TrainedModels) }},
	{"blocks", func(r Row) string { return count(r.Blocks) }},
	{"backdoor", func(r Row) string {
		if len(r.Backdoor) > 6 {
			return fmt.Sprintf("%s,… (%d)", strings.Join(r.Backdoor[:2], ","), len(r.Backdoor))
		}
		return strings.Join(r.Backdoor, ",")
	}},
	{"candidates", func(r Row) string { return count(r.Candidates) }},
	{"evals", func(r Row) string { return count(r.WhatIfEvals) }},
	{"ip nodes", func(r Row) string { return count(r.IPNodes) }},
	{"updates", func(r Row) string { return r.Updates }},
	{"runtime", func(r Row) string {
		if r.Runtime == 0 {
			return ""
		}
		return r.Runtime.Round(10 * time.Microsecond).String()
	}},
}

func count(n int) string {
	if n == 0 {
		return ""
	}
	return strconv.Itoa(n)
}

func real4(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

func nonzero4(v float64) string {
	if v == 0 {
		return ""
	}
	return real4(v)
}

// Render prints rows as one titled table per run of equal Row.Exp. It is the
// only formatter of the evaluation: hyperbench prints it, and EXPERIMENTS.md
// is it over rows whose Runtime is zeroed.
func Render(w io.Writer, rows []Row) error {
	var b strings.Builder
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && rows[n].Exp == rows[0].Exp {
			n++
		}
		table := rows[:n]
		rows = rows[n:]

		// One line of cells per row under the heads, keeping only the
		// columns some row fills, each as wide as its widest cell.
		var lines [][]string
		var widths []int
		for _, c := range columns {
			cells, width := []string{c.head}, 0
			for _, r := range table {
				cell := c.cell(r)
				cells = append(cells, cell)
				width = max(width, utf8.RuneCountInString(cell))
			}
			if width > 0 {
				lines = append(lines, cells)
				widths = append(widths, max(width, utf8.RuneCountInString(c.head)))
			}
		}
		b.WriteString(titles[table[0].Exp] + "\n")
		for li := 0; li <= len(table); li++ {
			var line strings.Builder
			for ci, cells := range lines {
				pad := widths[ci] - utf8.RuneCountInString(cells[li]) + 2
				line.WriteString(cells[li] + strings.Repeat(" ", pad))
			}
			b.WriteString(strings.TrimRight(line.String(), " ") + "\n")
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
