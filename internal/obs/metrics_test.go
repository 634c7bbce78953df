package obs

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/exposition.golden from the current exposition")

// maskRuntime blanks what a scrape reads from the Go runtime: the
// hyper_go_* gauges and the go_version label of hyper_build_info.
func maskRuntime(s string) string {
	s = regexp.MustCompile(`(?m)^(hyper_go_[a-z_]+) .*$`).ReplaceAllString(s, "$1 <masked>")
	return regexp.MustCompile(`go_version="[^"]*"`).ReplaceAllString(s, `go_version="<masked>"`)
}

// TestMetricsExpositionGolden pins the whole exposition of one family of
// every kind the registry serves — a counter, a counter func, a gauge func,
// a histogram, a two-label counter vec (label escaping included), a
// histogram vec and the runtime families with the build-info series — byte
// for byte against testdata/exposition.golden. The golden was written by
// the per-kind series types the one Vec replaced. Rewrite it only for a
// deliberate format change: go test -run TestMetricsExpositionGolden -update.
func TestMetricsExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("hyper_golden_events_total", "Events counted by their component.").Add(7)
	r.CounterFunc("hyper_golden_sum_total", "A sum read at scrape time.", func() float64 { return 42 })
	r.GaugeFunc("hyper_golden_live", "A gauge read at scrape time.", func() float64 { return 2.5 })
	h := r.Histogram("hyper_golden_latency_ms", "A latency histogram.", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	vec := r.CounterVec("hyper_golden_requeues_total", "A two-label counter family.", "worker", "reason")
	vec.With("w1", "dial_fail").Inc()
	vec.With("w0", "frame_missing").Add(2)
	vec.With("w0", "quote\" back\\slash\nnewline").Inc()
	hv := r.HistogramVec("hyper_golden_cost", "A histogram family.", []float64{1, 10}, "endpoint")
	hv.With("whatif").Observe(3)
	hv.With("howto").Observe(0.25)
	hv.With("howto").Observe(20)
	r.HistogramVec("hyper_golden_idle", "A histogram family with no series yet.", nil, "endpoint")
	RegisterRuntimeMetrics(r)

	var b strings.Builder
	r.WritePrometheus(&b)
	got := maskRuntime(b.String())
	const path = "testdata/exposition.golden"
	if *updateExposition {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
	if problems := r.Lint(); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}
}

// TestLabelValueEscaping renders a label value holding a tab, a control byte
// and a non-ASCII letter beside the three characters the exposition format
// escapes. Only a backslash, a double quote and a line feed take a
// backslash; every other byte goes out raw, since the format has no \t or
// \x escapes and a scraper would misread them.
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("hyper_escape_total", "Label escaping.", "worker")
	vec.With("a\tb\x01é").Inc()
	vec.With("q\"b\\n\nz").Add(2)
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		"hyper_escape_total{worker=\"a\tb\x01é\"} 1\n",
		`hyper_escape_total{worker="q\"b\\n\nz"} 2` + "\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}
