// Command hyperbench runs the paper's evaluation (Section 5) and prints the
// rows each experiment returns — estimate, ground truth, the engine's counts
// and the runtime — to be compared with the published shapes. The same rows
// at seed 7 and scale 0.02, minus the runtimes, are committed as
// EXPERIMENTS.md and held to those shapes by TestFidelity in
// internal/experiments.
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
	"time"

	"hyper/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run (or 'all')")
	scale := flag.Float64("scale", 0.1, "dataset size multiplier relative to the paper (1.0 = full)")
	seed := flag.Int64("seed", 7, "random seed")
	flag.Parse()

	selected, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyperbench:", err)
		os.Exit(2)
	}
	for _, e := range selected {
		fmt.Printf("=== %s (scale %.2g) ===\n", e.Name, *scale)
		start := time.Now()
		rows, err := e.Run(experiments.Config{Scale: *scale, Seed: *seed})
		if err == nil {
			err = experiments.Render(os.Stdout, rows)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyperbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %s ---\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}
