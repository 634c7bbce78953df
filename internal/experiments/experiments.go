// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment prints the same rows/series the
// paper reports, to be compared with the published shapes:
// `go run ./cmd/hyperbench -exp all -scale 0.05` prints them all, and the
// repository-root bench_test.go reports the plotted quantities as benchmark
// metrics. Both are thin wrappers over this package.
package experiments

import (
	"fmt"
	"io"
	"time"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// Config controls experiment scale and output.
type Config struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full size; the
	// benchmarks use smaller scales to stay interactive).
	Scale float64
	// Seed drives data generation and estimation.
	Seed int64
	// W receives the formatted experiment output.
	W io.Writer
}

func (c Config) defaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.W == nil {
		c.W = io.Discard
	}
	return c
}

// n scales a paper dataset size, with a floor to keep estimates meaningful.
func (c Config) n(paper int) int {
	n := int(float64(paper) * c.Scale)
	if n < 500 {
		n = 500
	}
	return n
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.W, format, args...)
}

// mustParseWhatIf parses a query template, panicking on programmer error
// (all experiment queries are static).
func mustParseWhatIf(src string) *hyperql.WhatIf {
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		panic(err)
	}
	return q
}

func mustParseHowTo(src string) *hyperql.HowTo {
	q, err := hyperql.ParseHowTo(src)
	if err != nil {
		panic(err)
	}
	return q
}

// timeEval evaluates a what-if query and returns (result, wall time).
func timeEval(db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts engine.Options) (*engine.Result, time.Duration, error) {
	start := time.Now()
	res, err := engine.Evaluate(db, model, q, opts)
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(start), nil
}

// fracGood returns the fraction of rows of rel satisfying col == val.
func fracGood(rel *relation.Relation, col string, val int64) float64 {
	ci := rel.Schema().MustIndex(col)
	n := 0
	for _, row := range rel.Rows() {
		if row[ci].AsInt() == val {
			n++
		}
	}
	return float64(n) / float64(rel.Len())
}
