package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndContext(t *testing.T) {
	tr := NewTrace("req")
	ctx := tr.Context(context.Background())
	if got := TraceIDFromContext(ctx); got != tr.ID {
		t.Fatalf("trace id in ctx = %q, want %q", got, tr.ID)
	}
	ctx2, sp := Start(ctx, "prepare")
	sp.Set("rows", 100)
	sp.Set("cached", true)
	_, child := Start(ctx2, "view")
	child.End()
	sp.End()
	tr.Finish()

	root := tr.Root().JSON()
	if root.Name != "req" || len(root.Children) != 1 {
		t.Fatalf("unexpected root: %+v", root)
	}
	prep := root.Children[0]
	if prep.Name != "prepare" || prep.Attrs["rows"] != int64(100) || prep.Attrs["cached"] != true {
		t.Fatalf("unexpected prepare span: %+v", prep)
	}
	if len(prep.Children) != 1 || prep.Children[0].Name != "view" {
		t.Fatalf("unexpected children: %+v", prep.Children)
	}
	if got := Skeleton(root); got != "req(prepare(view))" {
		t.Fatalf("skeleton = %q", got)
	}
}

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil || ctx2 != ctx {
		t.Fatalf("expected no-op start, got span=%v", sp)
	}
	// All nil-span methods must be safe.
	sp.Set("k", 1)
	sp.End()
	sp.ChildAt("c", time.Now()).End()
	sp.Graft(&SpanJSON{Name: "g"})
}

func TestConcurrentChildren(t *testing.T) {
	tr := NewTrace("root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tr.Root().ChildAt("fit", time.Now())
			c.Set("i", 1)
			c.End()
		}()
	}
	wg.Wait()
	tr.Finish()
	if got := len(tr.Root().JSON().Children); got != 32 {
		t.Fatalf("children = %d, want 32", got)
	}
}

func TestGraft(t *testing.T) {
	tr := NewTrace("coord")
	remote := &SpanJSON{
		Name: "eval", StartUnixUs: time.Now().UnixMicro(), DurMs: 12.5,
		Attrs:    map[string]any{"shards": float64(10)},
		Children: []*SpanJSON{{Name: "fit", DurMs: 3}},
	}
	w := tr.Root().ChildAt("worker_eval", time.Now())
	w.Graft(remote)
	w.End()
	tr.Finish()
	root := tr.Root().JSON()
	ev := root.Children[0].Children[0]
	if ev.Name != "eval" || ev.DurMs != 12.5 || len(ev.Children) != 1 {
		t.Fatalf("grafted span mangled: %+v", ev)
	}
	if got := Skeleton(root); got != "coord(worker_eval(eval(fit)))" {
		t.Fatalf("skeleton = %q", got)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 3; i++ {
		tr := NewTrace("q")
		tr.Finish()
		r.Record(tr)
	}
	if r.Recorded() != 3 {
		t.Fatalf("recorded = %d", r.Recorded())
	}
	list := r.ListFiltered(TraceFilter{})
	if len(list) != 2 {
		t.Fatalf("ring holds %d, want 2", len(list))
	}
	// Newest first.
	if _, ok := r.Get(list[0].ID); !ok {
		t.Fatalf("get %q failed", list[0].ID)
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("get of unknown id succeeded")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // bucket le=1
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // bucket le=100
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-545) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 1 {
		t.Fatalf("p50 = %v, want in (0,1]", p50)
	}
	if p95 := h.Quantile(0.95); p95 <= 10 || p95 > 100 {
		t.Fatalf("p95 = %v, want in (10,100]", p95)
	}
	// Overflow values clamp to the largest finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(99)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile = %v, want 1", got)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hyper_test_events_total", "test events")
	c.Add(3)
	r.GaugeFunc("hyper_test_live", "live things", func() float64 { return 2.5 })
	vec := r.CounterVec("hyper_test_requeues_total", "requeues", "worker", "reason")
	vec.With("w1", "dial_fail").Inc()
	vec.With("w0", "frame_missing").Add(2)
	h := r.Histogram("hyper_test_latency_ms", "latency", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP hyper_test_events_total test events",
		"# TYPE hyper_test_events_total counter",
		"hyper_test_events_total 3",
		"hyper_test_live 2.5",
		`hyper_test_requeues_total{worker="w0",reason="frame_missing"} 2`,
		`hyper_test_requeues_total{worker="w1",reason="dial_fail"} 1`,
		`hyper_test_latency_ms_bucket{le="1"} 1`,
		`hyper_test_latency_ms_bucket{le="10"} 2`,
		`hyper_test_latency_ms_bucket{le="+Inf"} 2`,
		"hyper_test_latency_ms_sum 5.5",
		"hyper_test_latency_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted series order within the vec family.
	if strings.Index(out, `worker="w0"`) > strings.Index(out, `worker="w1"`) {
		t.Fatalf("vec series not sorted:\n%s", out)
	}
	if problems := r.Lint(); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("hyper_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("hyper_dup_total", "x")
}

func TestLintCatchesSchemeViolations(t *testing.T) {
	r := NewRegistry()
	r.Counter("other_events_total", "no prefix")
	r.CounterFunc("hyper_bad_counter", "counter without _total suffix", func() float64 { return 0 })
	r.GaugeFunc("hyper_nohelp", "", func() float64 { return 0 })
	problems := r.Lint()
	if len(problems) != 3 {
		t.Fatalf("lint found %d problems, want 3: %v", len(problems), problems)
	}
}
