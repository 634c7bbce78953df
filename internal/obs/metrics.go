package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process's metric families and renders them in Prometheus
// text exposition format. Families expose in registration order; series
// within a family expose in sorted label order, so scrapes are
// deterministic. Registration of a duplicate or malformed name panics —
// metric names are program constants and a collision is a programming
// error (cmd/metriclint exercises exactly this at CI time via Lint).
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	families []*family
}

type family struct {
	name, help, typ string // typ: counter | gauge | histogram
	labels          []string

	counter   *Counter
	counterFn func() float64
	gaugeFn   func() float64
	hist      *Histogram
	vec       *CounterVec
	gaugeVec  *GaugeVec
	histVec   *HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func (r *Registry) register(f *family) {
	if !nameRE.MatchString(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n (n < 0 is ignored).
func (c *Counter) Add(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. A component counts its own events in a Counter it registers; a
// CounterFunc is only for sums over state another component owns (jobs'
// terminal counts, caches summed over sessions).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", counterFn: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", gaugeFn: fn})
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	labels []string
	mu     sync.RWMutex
	series map[string]*Counter
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, series: make(map[string]*Counter)}
	r.register(&family{name: name, help: help, typ: "counter", labels: labels, vec: v})
	return v
}

const labelSep = "\x1f"

// With returns the counter for the given label values (len must match the
// registered label names), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: counter vec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	c := v.series[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.series[key]; c == nil {
		c = &Counter{}
		v.series[key] = c
	}
	return c
}

// Each calls fn for every live series in sorted key order.
func (v *CounterVec) Each(fn func(values []string, c *Counter)) {
	if v == nil {
		return
	}
	v.mu.RLock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(strings.Split(k, labelSep), v.series[k])
	}
	v.mu.RUnlock()
}

// GaugeVec is a family of settable gauges keyed by label values — the shape
// behind constant info series like hyper_build_info{go_version="..."} 1.
type GaugeVec struct {
	labels []string
	mu     sync.RWMutex
	series map[string]float64
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{labels: labels, series: make(map[string]float64)}
	r.register(&family{name: name, help: help, typ: "gauge", labels: labels, gaugeVec: v})
	return v
}

// Set sets the gauge for the given label values (len must match the
// registered label names), creating the series on first use.
func (v *GaugeVec) Set(val float64, values ...string) {
	if v == nil {
		return
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: gauge vec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	v.series[key] = val
	v.mu.Unlock()
}

// Each calls fn for every live series in sorted key order.
func (v *GaugeVec) Each(fn func(values []string, val float64)) {
	if v == nil {
		return
	}
	v.mu.RLock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(strings.Split(k, labelSep), v.series[k])
	}
	v.mu.RUnlock()
}

// Histogram is a fixed-bucket histogram: cumulative-style exposition with
// le upper bounds plus an implicit +Inf bucket, constant memory regardless
// of traffic. Observations and scrapes are lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implied
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Uint64
}

// LatencyBucketsMs is the default bucket layout for request/stage latencies
// in milliseconds: roughly exponential from sub-millisecond to ten seconds.
var LatencyBucketsMs = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// CountBuckets is the default layout for volume-shaped observations (tuples
// evaluated, shards run, fits): decade steps from 1 to 10M.
var CountBuckets = []float64{1, 10, 100, 1000, 10000, 100000, 1e6, 1e7}

// NewHistogram returns an unregistered histogram with the given upper bounds
// (nil uses LatencyBucketsMs), for a component that keeps its own quantiles.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBucketsMs
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Histogram registers and returns a histogram with the given upper bounds
// (nil uses LatencyBucketsMs).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the covering bucket. Values in the +Inf bucket report the largest
// finite bound — an estimate, but a constant-memory one, which is the point
// of the histogram over the sliding-window-and-sort it replaced.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / c
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	labels []string
	bounds []float64
	mu     sync.RWMutex
	series map[string]*Histogram
}

// HistogramVec registers and returns a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(bounds) == 0 {
		bounds = LatencyBucketsMs
	}
	v := &HistogramVec{labels: labels, bounds: bounds, series: make(map[string]*Histogram)}
	r.register(&family{name: name, help: help, typ: "histogram", labels: labels, histVec: v})
	return v
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: histogram vec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	h := v.series[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.series[key]; h == nil {
		h = NewHistogram(v.bounds)
		v.series[key] = h
	}
	return h
}

// Each calls fn for every live series in sorted key order.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	if v == nil {
		return
	}
	v.mu.RLock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(strings.Split(k, labelSep), v.series[k])
	}
	v.mu.RUnlock()
}

// WritePrometheus renders every family in text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(float64(f.counter.Value())))
		case f.counterFn != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(f.counterFn()))
		case f.gaugeFn != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(f.gaugeFn()))
		case f.hist != nil:
			writeHistogram(&b, f.name, "", f.hist)
		case f.vec != nil:
			f.vec.Each(func(values []string, c *Counter) {
				fmt.Fprintf(&b, "%s{%s} %s\n", f.name, labelPairs(f.labels, values), formatValue(float64(c.Value())))
			})
		case f.gaugeVec != nil:
			f.gaugeVec.Each(func(values []string, val float64) {
				fmt.Fprintf(&b, "%s{%s} %s\n", f.name, labelPairs(f.labels, values), formatValue(val))
			})
		case f.histVec != nil:
			f.histVec.Each(func(values []string, h *Histogram) {
				writeHistogram(&b, f.name, labelPairs(f.labels, values), h)
			})
		}
	}
	io.WriteString(w, b.String())
}

func labelPairs(names, values []string) string {
	parts := make([]string, len(names))
	for i := range names {
		// %q escaping (backslash, quote, \n) matches the exposition format's
		// label value escaping rules.
		parts[i] = fmt.Sprintf("%s=%q", names[i], values[i])
	}
	return strings.Join(parts, ",")
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, histLabelPrefix(labels), formatValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, histLabelPrefix(labels), cum)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count())
}

func histLabelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// Lint checks every registered family against the stack's naming scheme and
// returns human-readable problems (empty means clean). Enforced in CI by
// cmd/metriclint: all names carry the hyper_ prefix, counters end in
// _total, help strings are present, and vec label names are valid.
func (r *Registry) Lint() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var problems []string
	for _, f := range r.families {
		if !strings.HasPrefix(f.name, "hyper_") {
			problems = append(problems, fmt.Sprintf("%s: missing hyper_ prefix", f.name))
		}
		if f.typ == "counter" && !strings.HasSuffix(f.name, "_total") {
			problems = append(problems, fmt.Sprintf("%s: counter name must end in _total", f.name))
		}
		if strings.TrimSpace(f.help) == "" {
			problems = append(problems, fmt.Sprintf("%s: missing help string", f.name))
		}
		for _, l := range f.labels {
			if !nameRE.MatchString(l) {
				problems = append(problems, fmt.Sprintf("%s: invalid label name %q", f.name, l))
			}
		}
	}
	return problems
}

// Names returns the registered family names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.name
	}
	return out
}
