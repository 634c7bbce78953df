package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hyper/internal/dataset"
)

// toy runs one workload at toy scale: 2% of the rows, one round of the mix.
func toy(t *testing.T, name string, trace bool) (*report, string) {
	t.Helper()
	cfg := runConfig{
		workload: name, seed: 5, seconds: 0.01, trace: trace,
		clients: workloadClients(name), outDir: t.TempDir(), rowScale: 0.02,
	}
	rep, err := runWorkload(cfg, setups[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// Ground-truth tolerances are set for the real sizes; at 2% of the rows
	// only the exact checks (every answer against its reference) must hold.
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, rep.Failed, rep.Attempted, rep.Notes)
	}
	return rep, cfg.outDir
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	units := map[string]string{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range workloadDefs {
		rep, _ := toy(t, w.Name, false)
		for _, m := range endToEnd {
			if v, ok := rep.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
		traced, dir := toy(t, w.Name, true)
		for _, m := range perLayer {
			if _, ok := traced.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		var out bytes.Buffer
		printReport(traced, &out, &out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
		}
		for name, mv := range last.Metrics {
			if mv.Unit == "" || mv.Unit != units[name] {
				t.Errorf("%s: metric %s printed with unit %q, want %q", w.Name, name, mv.Unit, units[name])
			}
		}
		if _, err := os.Stat(filepath.Join(dir, w.Name+".trace.json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}

// Layers a workload does not exercise must read 0, and the layers it exists
// for must not.
func TestLayersMatchWorkload(t *testing.T) {
	dist, _ := toy(t, "dist_workers", true)
	cold, _ := toy(t, "cold_whatif", true)
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "dist.") && cold.Metrics[m.Name] != 0 {
			t.Errorf("cold_whatif reports %s = %v, want 0", m.Name, cold.Metrics[m.Name])
		}
	}
	for _, name := range []string{"dist.first_ship_ms", "dist.frame_bytes", "dist.bytes_per_op", "dist.overhead_ratio", "dist.worker_eval_ms"} {
		if dist.Metrics[name] <= 0 {
			t.Errorf("dist_workers reports %s = %v, want > 0", name, dist.Metrics[name])
		}
	}
	for _, name := range []string{"plan.compile_ms", "ml.encode_ms", "engine.eval_ms", "shard.speedup"} {
		if cold.Metrics[name] <= 0 {
			t.Errorf("cold_whatif reports %s = %v, want > 0", name, cold.Metrics[name])
		}
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	queries := func(seed int64) string {
		all := append(specTexts(germanTemplates(seed, 16)), specTexts(amazonTemplates(seed, 8))...)
		all = append(all, specTexts(howToQueries(newRNG(seed, 3)))...)
		return strings.Join(all, "\n")
	}
	batches := func(seed int64) string {
		rel := dataset.GermanSyn(600, dataSeed(seed)).Rel()
		return strings.Join(appendBatches(rel, 200, 2, 200), "--\n")
	}
	if queries(11) != queries(11) || batches(11) != batches(11) {
		t.Fatal("the same seed generated different inputs")
	}
	if queries(11) == queries(12) {
		t.Error("seeds 11 and 12 generated the same query list")
	}
	if batches(11) == batches(12) {
		t.Error("seeds 11 and 12 generated the same CSV batches")
	}
	if got := len(germanTemplates(11, 16)); got != 16 {
		t.Errorf("germanTemplates returned %d templates, want 16", got)
	}
	// Appended batches continue the session's rows: the generator's output
	// for n rows is a prefix of its output for more.
	short, long := dataset.GermanSyn(200, dataSeed(11)).Rel(), dataset.GermanSyn(600, dataSeed(11)).Rel()
	for i := 0; i < short.Len(); i++ {
		for c := range short.Row(i) {
			if !short.Row(i)[c].Equal(long.Row(i)[c]) {
				t.Fatalf("row %d differs between a 200-row and a 600-row generation", i)
			}
		}
	}
}

// The reference kernel must not allocate: the collector's pace depends on
// the program's heap, and the kernel has to be independent of the program.
func TestReferenceKernelDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { refIterate() }); n != 0 {
		t.Errorf("one kernel iteration allocates %v times, want 0", n)
	}
	if f := speedFactor([]float64{2 * refNominalMs, 2 * refNominalMs}); f != 0.5 {
		t.Errorf("a machine running at half speed has factor %v, want 0.5", f)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{12, 50},     // no listed percentile has ten samples beyond it
		{39, 50},     // p75 would leave 9.75
		{40, 75},     // p75 leaves exactly 10
		{100, 90},    // p95 would leave 5
		{200, 95},    // p98 would leave 4
		{1000, 99},   // p99.5 would leave 5
		{2000, 99.5}, // p99.9 would leave 2
		{10000, 99.9},
	} {
		p, v := tailPercentile(seq(c.n))
		if p != c.want {
			t.Errorf("n=%d: picked p%v, want p%v", c.n, p, c.want)
		}
		if beyond := c.n * (1000 - int(p*10+0.5)) / 1000; p != 50 && beyond < 10 {
			t.Errorf("n=%d: p%v leaves only %d samples beyond it", c.n, p, beyond)
		}
		if v < median(seq(c.n)) {
			t.Errorf("n=%d: tail value %v below the median", c.n, v)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 1, Parent: -1, StartUs: 0, EndUs: 100},
		{Name: "parse", Op: 1, Parent: 0, StartUs: 5, EndUs: 15},
		{Name: "evaluate", Op: 1, Parent: 0, StartUs: 20, EndUs: 90},
		// two shard workers overlap inside evaluate: [30,60] and [40,80]
		// cover 50us of it, not 70.
		{Name: "shard", Op: 1, Parent: 2, StartUs: 30, EndUs: 60},
		{Name: "shard", Op: 1, Parent: 2, StartUs: 40, EndUs: 80},
		// a child that outlives its parent counts only inside it.
		{Name: "op", Op: 2, Parent: -1, StartUs: 200, EndUs: 300},
		{Name: "late", Op: 2, Parent: 5, StartUs: 290, EndUs: 320},
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": (100 - 10 - 70) + (100 - 10), "parse": 10, "evaluate": 70 - 50, "shard": 30 + 40, "late": 30}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d us, want %d", name, got[name], w)
		}
	}
}

func TestMixP50IgnoresModeJumps(t *testing.T) {
	// Two templates, one ten times dearer: the plain median jumps with the
	// share of each, the per-template figure does not.
	a := [][]float64{{10, 10, 10}, {100, 100}}
	b := [][]float64{{10, 10}, {100, 100, 100}}
	if mixP50(a) != 55 || mixP50(b) != 55 {
		t.Errorf("mixP50 = %v, %v; want 55 for both", mixP50(a), mixP50(b))
	}
	if median(flatten(a)) == median(flatten(b)) {
		t.Error("test premise broken: plain medians should differ")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestContractMatchesBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if setups[w.Name] == nil {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %s: bound %v unit %q", m.Name, m.Bound, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Error("contract size limits exceeded")
	}
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	if !bytes.Equal(onDisk, contractJSON()) {
		t.Error("BENCHMARK.json differs from `bench -contract`; regenerate it")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 []float64) *resultsFile {
		r := &resultsFile{Seed: 1, Runs: len(p50), Seconds: 10, Scale: opCountFactor}
		for i, v := range p50 {
			r.Reports = append(r.Reports, report{Workload: "cold_whatif", Seed: int64(1 + i), Metrics: map[string]float64{"op_p50_ms": v}})
		}
		return r
	}
	write := func(r *resultsFile) string {
		path := filepath.Join(t.TempDir(), "r.json")
		raw, _ := json.Marshal(r)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(mk([]float64{100, 101, 99, 100, 102}))
	for _, c := range []struct {
		name    string
		other   *resultsFile
		code    int
		verdict string
	}{
		{"same", mk([]float64{101, 100, 100, 99, 102}), 0, "ok"},
		{"slower", mk([]float64{140, 141, 139, 140, 142}), 1, "regressed"},
		{"noisy", mk([]float64{80, 100, 120, 140, 90}), 1, "unresolved"},
	} {
		var out, errOut bytes.Buffer
		code := compareFiles(base, write(c.other), &out, &errOut)
		if code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: exit %d, output %q; want exit %d and verdict %s", c.name, code, out.String(), c.code, c.verdict)
		}
	}
	other := mk([]float64{100, 100, 100, 100, 100})
	other.Seed = 2
	var out, errOut bytes.Buffer
	if code := compareFiles(base, write(other), &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "seeds differ") {
		t.Errorf("different seeds: exit %d, stderr %q; want a refusal", code, errOut.String())
	}
}
