package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles with the metric's bound and direction, and a
// verdict: regressed (B's median is worse than A's by more than the bound),
// unresolved (either side's quartile range is wider than the bound, so the
// runs cannot tell) or ok. It refuses files from different seeds, run
// counts, run lengths or environments.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(stderr, "bench: -compare:", errA, errB)
		return 2
	}
	if why := incomparable(a, b); why != "" {
		fmt.Fprintln(stderr, "bench: -compare: refusing to compare:", why)
		return 2
	}
	fmt.Fprintf(stdout, "%-13s %-17s %-6s %5s  %12s %24s  %12s %24s  %8s  %s\n",
		"workload", "metric", "better", "bound", "A median", "A quartiles", "B median", "B quartiles", "change", "verdict")
	bad := 0
	for _, w := range workloadDefs {
		for _, m := range endToEnd {
			xa, xb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma // share of A's median by which B is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spreadPct(xa)/100 > m.Bound || spreadPct(xb)/100 > m.Bound:
				verdict = "unresolved"
				bad++
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-17s %-6s %4.0f%%  %12.4f [%10.4f, %10.4f]  %12.4f [%10.4f, %10.4f]  %+7.1f%%  %s\n",
				w.Name, m.Name, m.Better, 100*m.Bound,
				ma, quantile(xa, 0.25), quantile(xa, 0.75),
				mb, quantile(xb, 0.25), quantile(xb, 0.75), 100*(mb-ma)/ma, verdict)
		}
		fa, fb := a.failures(w.Name), b.failures(w.Name)
		if fa+fb > 0 {
			fmt.Fprintf(stdout, "%-13s failed operations: A %d, B %d\n", w.Name, fa, fb)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func incomparable(a, b *resultsFile) string {
	switch {
	case a.Seed != b.Seed:
		return fmt.Sprintf("seeds differ (%d, %d)", a.Seed, b.Seed)
	case a.Runs != b.Runs || a.Seconds != b.Seconds || a.Scale != b.Scale:
		return "run counts, run lengths or op-count factors differ"
	case a.Meta.GOMAXPROCS != b.Meta.GOMAXPROCS || a.Meta.NumCPU != b.Meta.NumCPU:
		return fmt.Sprintf("GOMAXPROCS/nproc differ (%d/%d, %d/%d)", a.Meta.GOMAXPROCS, a.Meta.NumCPU, b.Meta.GOMAXPROCS, b.Meta.NumCPU)
	case a.Meta.GoVersion != b.Meta.GoVersion:
		return fmt.Sprintf("Go versions differ (%s, %s)", a.Meta.GoVersion, b.Meta.GoVersion)
	}
	return ""
}

// values lists one end-to-end metric over a workload's untraced runs.
func (r *resultsFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, rep := range r.Reports {
		if v, ok := rep.Metrics[metric]; ok && rep.Workload == workload && !rep.Trace {
			xs = append(xs, v)
		}
	}
	return xs
}

func (r *resultsFile) failures(workload string) int {
	n := 0
	for _, rep := range r.Reports {
		if rep.Workload == workload {
			n += rep.Failed
		}
	}
	return n
}
