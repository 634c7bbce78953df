// Command hyperbench regenerates the tables and figures of the HypeR paper
// (Section 5). Each experiment prints the rows/series the paper reports, to
// be compared with the published shapes; bench_test.go at the repository root
// reports the same quantities (query-output error, solution quality) as
// `go test -bench` metrics.
//
// Usage:
//
//	hyperbench -exp all -scale 0.05
//	hyperbench -exp table1,fig10 -scale 1.0 -seed 42
//
// Experiments: table1, fig6, fig8, fig9, fig10, fig11, fig12, usecases,
// backdoor, howto-quality, ablation, all. Scale multiplies the paper's
// dataset sizes; 1.0 reproduces the full 1M-row runs.
//
// Performance is measured elsewhere: `bash bench/run.sh` (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hyper/internal/experiments"
)

var runners = []struct {
	name string
	fn   func(experiments.Config) error
}{
	{"table1", experiments.Table1},
	{"fig6", experiments.Fig6},
	{"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9},
	{"fig10", experiments.Fig10},
	{"fig11", experiments.Fig11},
	{"fig12", experiments.Fig12},
	{"usecases", experiments.UseCases},
	{"backdoor", experiments.BackdoorSize},
	{"howto-quality", experiments.HowToQuality},
	{"ablation", experiments.Ablations},
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run (or 'all')")
	scale := flag.Float64("scale", 0.1, "dataset size multiplier relative to the paper (1.0 = full)")
	seed := flag.Int64("seed", 7, "random seed")
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, W: os.Stdout}

	ran := 0
	for _, r := range runners {
		if !want["all"] && !want[r.name] {
			continue
		}
		fmt.Printf("=== %s (scale %.2g) ===\n", r.name, *scale)
		start := time.Now()
		if err := r.fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "hyperbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %s ---\n\n", r.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		known := make([]string, len(runners))
		for i, r := range runners {
			known[i] = r.name
		}
		fmt.Fprintf(os.Stderr, "hyperbench: no experiment matched %q; known: %s\n", *exp, strings.Join(known, ", "))
		os.Exit(2)
	}
}
