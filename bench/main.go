// Command bench is the repository's benchmark for what-if and how-to
// queries: six named workloads, five end-to-end metrics, and a per-layer
// breakdown measured from outside the program. BENCHMARK.json at the
// repository root is its contract; README.md is the glossary.
//
//	bash bench/run.sh --workload cold_whatif --seed 1 --seconds 10 --trace 0   one run, as the driver makes it
//	bash bench/run.sh                       every workload once, then bench/out/results.json
//	bash bench/run.sh -trace 1              the same plus the traced run of every workload
//	bash bench/run.sh -runs 10              ten runs per workload (seeds seed..seed+9)
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

var setups = map[string]func(runConfig) (workload, error){
	"cold_whatif":  setupColdWhatIf,
	"warm_serve":   setupWarmServe,
	"join_forest":  setupJoinForest,
	"howto_ip":     setupHowToIP,
	"append_mix":   setupAppendMix,
	"dist_workers": setupDistWorkers,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print its result object (empty: run them all)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same data, queries and append batches")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and the per-layer metrics")
	runs := fs.Int("runs", 1, "runs per workload when running them all (run i uses seed+i)")
	outDir := fs.String("out", defaultOutDir(), "directory for results.json and the span files")
	compare := fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	contract := fs.Bool("contract", false, "print BENCHMARK.json as the program defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *contract:
		stdout.Write(contractJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *trace == 1, *runs, *outDir, stdout, stderr)
	}
	setup, ok := setups[*workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		clients: workloadClients(*workload), outDir: *outDir,
	}
	rep, err := runWorkload(cfg, setup)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(rep, stdout, stderr)
	return 0
}

// defaultOutDir is bench/out, whether the program runs from the repository
// root (run.sh) or from bench/ (go run .).
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// resultLine is the object the driver reads from the last line of standard
// output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric by name with its unit, failure notes on
// standard error, and the result object last. A wrong answer is reported in
// the object (correct=false, failed>0), not by the exit code: the run itself
// completed.
func printReport(rep *report, stdout, stderr io.Writer) {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v attempted=%d failed=%d correct=%v wall=%.1fs ref_kernel_ms=%.4f speed_factor=%.4f\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Attempted, rep.Failed, rep.Correct, rep.WallS, rep.RefKernelMs, rep.SpeedFactor)
	for _, l := range rep.metricLines(defs) {
		fmt.Fprintln(stdout, l)
	}
	for _, n := range sortedNotes(rep.Notes, 10) {
		fmt.Fprintln(stderr, "bench: "+n)
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: rep.Metrics[d.Name], Unit: d.Unit}
	}
	raw, _ := json.Marshal(line)
	fmt.Fprintln(stdout, string(raw))
}

// resultsFile is bench/out/results.json: every run of one invocation, with
// the environment it ran in.
type resultsFile struct {
	Meta    runMeta  `json:"meta"`
	Seed    int64    `json:"seed"`
	Runs    int      `json:"runs"`
	Seconds float64  `json:"seconds"`
	Scale   string   `json:"op_count_factor"`
	Reports []report `json:"reports"`
}

// opCountFactor records how the issue's operation counts and sizes were
// scaled to the contract's time cap and to the sandbox's noise: runs are
// timed, not counted, and the datasets are smaller (see inproc.go).
const opCountFactor = "timed runs of run_seconds; German-Syn at 0.2x (cold_whatif, append_mix, dist_workers) and 0.5x (howto_ip), Amazon-Syn at 0.5x (join_forest) of the issue's sizes; append batches 1% of the initial rows, 96 cycles at most"

// runAll runs every workload in a process of its own — exactly as the
// driver does, so heap, caches and the collector's state never leak from
// one workload into the next — and gathers the result objects.
func runAll(seed int64, seconds float64, trace bool, runs int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := resultsFile{Meta: newRunMeta(), Seed: seed, Runs: runs, Seconds: seconds, Scale: opCountFactor}
	if res.Meta.DegradedEnv {
		fmt.Fprintf(stderr, "bench: degraded_env: %d core(s), workloads want %d\n", res.Meta.NumCPU, maxClients)
	}
	traces := []int{0}
	if trace {
		traces = append(traces, 1)
	}
	ok := true
	for _, w := range workloadDefs {
		for i := 0; i < runs; i++ {
			for _, tr := range traces {
				rep, err := runChild(self, w.Name, seed+int64(i), seconds, tr, outDir, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
					ok = false
					continue
				}
				ok = ok && rep.Correct
				res.Reports = append(res.Reports, *rep)
			}
		}
	}
	raw, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(outDir, "results.json"))
	if !ok {
		fmt.Fprintln(stderr, "bench: at least one run failed or returned a wrong answer")
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, relays what it prints, and
// decodes the result object from its last line. The child is always waited
// for.
func runChild(self, workload string, seed int64, seconds float64, trace int, outDir string, stdout, stderr io.Writer) (*report, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", outDir)
	cmd.Stderr = stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("decoding result object: %w", err)
	}
	rep := &report{
		Workload: workload, Seed: seed, Trace: trace == 1, Correct: line.Correct,
		Attempted: line.Attempted, Failed: line.Failed, WallS: time.Since(t0).Seconds(),
		Metrics: map[string]float64{},
	}
	for name, m := range line.Metrics {
		rep.Metrics[name] = m.Value
	}
	// The machine-speed figures travel in the child's header line.
	for _, field := range strings.Fields(lines[0]) {
		if v, ok := strings.CutPrefix(field, "ref_kernel_ms="); ok {
			fmt.Sscan(v, &rep.RefKernelMs)
		} else if v, ok := strings.CutPrefix(field, "speed_factor="); ok {
			fmt.Sscan(v, &rep.SpeedFactor)
		}
	}
	return rep, nil
}
