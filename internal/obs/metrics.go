package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
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

// family is one registered metric family: what Lint reads (name, help,
// type, label names) and render, which writes the family's samples.
type family struct {
	name, help, typ string // typ: counter | gauge | histogram
	labels          []string
	render          func(b *strings.Builder)
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

// Counter registers and returns a new counter: the one series of a
// label-less counter family.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec[*Counter] {
	return registerVec(r, name, help, "counter", labels, func() *Counter { return &Counter{} },
		func(b *strings.Builder, name, labels string, c *Counter) {
			writeSample(b, name, labels, float64(c.Value()))
		})
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. A component counts its own events in a Counter it registers; a
// CounterFunc is only for sums over state another component owns (jobs'
// terminal counts, caches summed over sessions).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.scrapeFunc(name, help, "counter", fn)
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.scrapeFunc(name, help, "gauge", fn)
}

func (r *Registry) scrapeFunc(name, help, typ string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typ, render: func(b *strings.Builder) {
		writeSample(b, name, "", fn())
	}})
}

// Vec is a metric family's series keyed by label values: counters,
// histograms, or the constant 1 of an info series. A label-less Vec holds
// at most one series, an unlabeled family's.
type Vec[T any] struct {
	labels    []string
	newSeries func() T
	mu        sync.RWMutex
	series    map[string]T
}

// registerVec adds a family whose series are a Vec's: newSeries makes a label
// tuple's series on first use, and write renders one series with its label
// pairs ("" for none).
func registerVec[T any](r *Registry, name, help, typ string, labels []string, newSeries func() T,
	write func(b *strings.Builder, name, labels string, s T)) *Vec[T] {
	v := &Vec[T]{labels: labels, newSeries: newSeries, series: make(map[string]T)}
	r.register(&family{name: name, help: help, typ: typ, labels: labels, render: func(b *strings.Builder) {
		v.Each(func(values []string, s T) { write(b, name, labelPairs(labels, values), s) })
	}})
	return v
}

const labelSep = "\x1f"

// With returns the series for the given label values (len must match the
// registered label names), creating it on first use. For a series that
// exists it takes one read lock and one map probe, and a key of at most one
// label value allocates nothing.
func (v *Vec[T]) With(values ...string) T {
	if v == nil {
		var zero T
		return zero
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: vec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	s, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return s
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok = v.series[key]; !ok {
		s = v.newSeries()
		v.series[key] = s
	}
	return s
}

// Each calls fn for every live series in sorted key order.
func (v *Vec[T]) Each(fn func(values []string, s T)) {
	if v == nil {
		return
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		values := []string(nil)
		if len(v.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		fn(values, v.series[k])
	}
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
// (nil uses LatencyBucketsMs): the one series of a label-less histogram
// family.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// HistogramVec registers and returns a labeled histogram family whose
// series share the given upper bounds (nil uses LatencyBucketsMs).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *Vec[*Histogram] {
	return registerVec(r, name, help, "histogram", labels, func() *Histogram { return NewHistogram(bounds) }, writeHistogram)
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

// Handler serves the registry in Prometheus text exposition format — mount
// at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
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
		f.render(&b)
	}
	io.WriteString(w, b.String())
}

// labelEscaper escapes a label value as the exposition format does: a
// backslash, a double quote and a line feed, and every other byte raw.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func labelPairs(names, values []string) string {
	parts := make([]string, len(names))
	for i := range names {
		parts[i] = names[i] + `="` + labelEscaper.Replace(values[i]) + `"`
	}
	return strings.Join(parts, ",")
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// writeSample writes one sample line, with its label pairs when it has any.
func writeSample(b *strings.Builder, name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s%s %s\n", name, labels, formatValue(v))
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	le := ""
	if labels != "" {
		le = labels + ","
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, le, formatValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, cum)
	writeSample(b, name+"_sum", labels, h.Sum())
	writeSample(b, name+"_count", labels, float64(h.Count()))
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
