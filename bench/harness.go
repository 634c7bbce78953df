package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// mode is how one operation is observed. End-to-end metrics come only from
// untraced operations; the traced run interleaves the modes operation by
// operation, so machine drift lands on every mode alike and their
// difference is the tracing overhead.
type mode int

const (
	modeUntraced mode = iota // no trace, no meter on the context; plain HTTP request
	modeTraced               // obs trace + meter on the context; ?trace=1 over HTTP
	modeMetered              // meter only (in-process workloads)
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	outDir   string
	// rowScale shrinks every dataset (tests run at toy scale); 1 in real runs.
	rowScale float64
}

func (c runConfig) rows(n int) int {
	if c.rowScale <= 0 || c.rowScale == 1 {
		return n
	}
	if m := int(float64(n) * c.rowScale); m > 200 {
		return m
	}
	return 200
}

// opSample is what one primary operation reports back to the loop. The
// stage fields are the program's own figures (engine.Result stage times, or
// total_ms and the ?trace=1 tree over HTTP); aux carries the workload's
// secondary figures (see each workload).
type opSample struct {
	tmpl int
	mode mode
	ms   float64 // client-observed latency of the primary operation
	fail bool    // error, non-2xx, or an answer that contradicts an earlier one
	// staged marks a sample whose stage fields below are filled: every
	// in-process what-if, and over HTTP only the requests that asked for
	// the trace.
	staged bool

	value, sum, count float64 // the answer, kept for the offline verifier
	sig               uint64  // hash of non-numeric answer parts (how-to choices)

	view, block, plan, train, eval, total float64 // ms
	models, pushed                        int
	aux                                   [6]float64
}

// workload is one of the six named workloads, set up and ready to run.
type workload interface {
	// templates is the length of one round of the operation mix.
	templates() int
	// op runs the tmpl-th operation of the mix on behalf of one client; rec
	// is nil unless the operation is traced.
	op(client, tmpl int, m mode, rec *spanRecorder) opSample
	// verify checks the logged answers after the measured phase, from
	// outside: it returns the number of extra checks made, how many failed,
	// and a note per failure.
	verify(samples []opSample) (checks, failed int, notes []string)
	// truth compares answers with structural-equation ground truth: mean
	// error in percent over the checkable templates, how many were checked,
	// and whether the mean is inside the workload's tolerance.
	truth() (errPct float64, checked int, ok bool)
	// probes times single layers through their public functions, on the
	// workload's own data, and folds workload-specific sample figures into
	// out (traced runs only).
	probes(out map[string]float64, samples []opSample, rec *spanRecorder)
	// close stops listeners and goroutines the set-up started.
	close()
}

// heapSampler is implemented by a workload whose retained heap depends on
// how many operations ran; it samples the heap at a fixed operation count
// instead, so the metric does not move with the machine's speed.
type heapSampler interface {
	sampledHeapMB() (float64, bool)
}

// limiter is implemented by a workload whose inputs can run out; the loop
// stops at the end of the round in which it reports so.
type limiter interface {
	exhausted() bool
}

// setupReps is how often set-up runs; setup_s is the median.
const setupReps = 3

// report is the outcome of one run.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
	// RefKernelMs is the reference kernel's median time in this run and
	// SpeedFactor the factor the end-to-end timing metrics were multiplied
	// by to bring them to reference speed (see calib.go).
	RefKernelMs float64            `json:"ref_kernel_ms,omitempty"`
	SpeedFactor float64            `json:"speed_factor,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Notes       []string           `json:"notes,omitempty"`
}

// slice is one stretch of the measured phase, cut at a round boundary of
// client 0 and at least sliceMin long: how many operations all clients
// completed in it, and the wall and CPU time it took.
type slice struct {
	ops       int
	wall, cpu time.Duration
}

const sliceMin = 200 * time.Millisecond

// runLoop drives the clients closed-loop — each sends its next operation
// only when the previous one has answered — over whole rounds of the
// template mix, until about d has elapsed: a client starts another round
// while the time left is more than half its last round, and always runs at
// least one. Whole rounds keep the mix, and so every per-op figure, the
// same whatever the machine's speed.
func runLoop(d time.Duration, clients int, modes []mode, w workload, rec *spanRecorder) (all []opSample, slices []slice, ref []float64, wall time.Duration) {
	n := w.templates()
	perClient := make([][]opSample, clients)
	var done atomic.Int64
	ref = refSample(nil) // the first reference window, before any operation
	start := time.Now()
	refAt := start
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			offset := c * n / clients // clients walk the mix out of phase
			cutAt, cutOps, cutCPU := start, int64(0), cpuTime()
			if c == 0 {
				// Whatever follows the last full slice joins it; a phase shorter
				// than one slice is a single slice.
				defer func() {
					rest := slice{ops: int(done.Load() - cutOps), wall: time.Since(cutAt), cpu: cpuTime() - cutCPU}
					if len(slices) == 0 {
						slices = append(slices, rest)
						return
					}
					last := &slices[len(slices)-1]
					last.ops, last.wall, last.cpu = last.ops+rest.ops, last.wall+rest.wall, last.cpu+rest.cpu
				}()
			}
			for round := 0; ; round++ {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					tmpl := (i + offset) % n
					m := modes[(tmpl+round)%len(modes)]
					r := rec
					if m != modeTraced {
						r = nil // only traced operations record spans
					}
					perClient[c] = append(perClient[c], w.op(c, tmpl, m, r))
					done.Add(1)
				}
				now := time.Now()
				if c == 0 && now.Sub(refAt) >= refEvery {
					// A reference window: client 0 has nothing in flight. Its
					// wall and CPU time are taken out of the current slice.
					cpu0 := cpuTime()
					ref = refSample(ref)
					refAt = time.Now()
					cutAt, cutCPU = cutAt.Add(refAt.Sub(now)), cutCPU+cpuTime()-cpu0
					now = refAt
				}
				if c == 0 && now.Sub(cutAt) >= sliceMin {
					ops, cpu := done.Load(), cpuTime()
					slices = append(slices, slice{ops: int(ops - cutOps), wall: now.Sub(cutAt), cpu: cpu - cutCPU})
					cutAt, cutOps, cutCPU = now, ops, cpu
				}
				if l, ok := w.(limiter); ok && l.exhausted() {
					return
				}
				if now.Sub(start)+now.Sub(t0)/2 >= d {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	ref = refSample(ref) // the last window, after every operation
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, slices, ref, wall
}

// sliceMedians returns the median over the slices of operations per second
// and of CPU milliseconds per operation. A total over the whole phase would
// carry every stall of a shared machine; the median slice does not, and on
// a quiet machine the two agree.
func sliceMedians(slices []slice) (opsPerS, cpuMsPerOp float64) {
	var rate, cpu []float64
	for _, s := range slices {
		if s.ops > 0 && s.wall > 0 {
			rate = append(rate, float64(s.ops)/s.wall.Seconds())
			cpu = append(cpu, ms(s.cpu)/float64(s.ops))
		}
	}
	return median(rate), median(cpu)
}

// byTemplate groups the latencies of one mode's samples by template.
func byTemplate(samples []opSample, m mode, n int, pick func(opSample) float64) [][]float64 {
	out := make([][]float64, n)
	for _, s := range samples {
		if s.mode == m && !s.fail {
			out[s.tmpl] = append(out[s.tmpl], pick(s))
		}
	}
	return out
}

func latency(s opSample) float64 { return s.ms }

// runWorkload sets the workload up, runs its measured phase, verifies every
// answer and returns the metrics of the requested kind.
func runWorkload(cfg runConfig, setup func(runConfig) (workload, error)) (*report, error) {
	begin := time.Now()
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]float64{}}

	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC() // the discarded set-up must not bill its garbage to the next
		}
		t0 := time.Now()
		var err error
		if w, err = setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	modes := []mode{modeUntraced}
	seconds := cfg.seconds
	var rec *spanRecorder
	if cfg.trace {
		modes = traceModes(cfg.workload)
		seconds *= 0.7 // the rest of the budget goes to the direct probes
		rec = newSpanRecorder()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	samples, slices, ref, wall := runLoop(time.Duration(seconds*float64(time.Second)), cfg.clients, modes, w, rec)
	runtime.ReadMemStats(&m1)
	rep.RefKernelMs, rep.SpeedFactor = median(ref), speedFactor(ref)

	heap, sampled := 0.0, false
	if hs, ok := w.(heapSampler); ok {
		heap, sampled = hs.sampledHeapMB()
	}
	if !sampled {
		heap = retainedHeapMB()
	}

	ops := len(samples)
	rep.Attempted = ops
	for _, s := range samples {
		if s.fail {
			rep.Failed++
		}
	}
	checks, failed, notes := w.verify(samples)
	rep.Attempted += checks
	rep.Failed += failed
	rep.Notes = append(rep.Notes, notes...)
	errPct, checked, truthOK := w.truth()
	if !truthOK {
		rep.Notes = append(rep.Notes, fmt.Sprintf("ground-truth error %.2f%% is outside the workload's tolerance", errPct))
	}
	rep.Correct = rep.Failed == 0 && truthOK

	n := w.templates()
	untraced := byTemplate(samples, modeUntraced, n, latency)
	if !cfg.trace {
		// Timing metrics are reported at reference speed (see calib.go).
		f := rep.SpeedFactor
		rate, cpu := sliceMedians(slices)
		rep.Metrics["op_p50_ms"] = mixP50(untraced) * f
		rep.Metrics["ops_per_s"] = rate / f
		rep.Metrics["cpu_ms_per_op"] = cpu * f
		rep.Metrics["retained_heap_mb"] = heap
		rep.Metrics["setup_s"] = median(setups) * f
	} else {
		out := rep.Metrics
		for _, m := range perLayer {
			out[m.Name] = 0
		}
		all := flatten(untraced)
		out["client.op_p50_ms"] = mixP50(untraced)
		out["client.op_tail_pctile"], out["client.op_tail_ms"] = tailPercentile(all)
		out["client.samples"] = float64(len(all))
		out["client.wall_s"] = wall.Seconds()
		// Layer metrics are as measured; the run's machine speed is beside them.
		out["bench.ref_kernel_ms"], out["bench.speed_factor"] = rep.RefKernelMs, rep.SpeedFactor
		out["truth.err_pct"] = errPct
		out["truth.checked"] = float64(checked)
		out["hyper.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(ops)
		out["hyper.mallocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		out["hyper.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		stageMetrics(out, samples)
		overheadMetrics(out, samples, n)
		w.probes(out, samples, rec)
		path := fmt.Sprintf("%s/%s.trace.json", cfg.outDir, cfg.workload)
		if err := rec.write(path, cfg.workload, cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: writing spans: %w", cfg.workload, err)
		}
	}
	rep.WallS = time.Since(begin).Seconds()
	return rep, nil
}

// traceModes lists the observation modes a traced run interleaves. The
// in-process workloads can carry a meter without a trace; over HTTP the
// server meters every request, so only ?trace=1 can be toggled.
func traceModes(workload string) []mode {
	switch workload {
	case "cold_whatif", "join_forest", "howto_ip":
		return []mode{modeUntraced, modeTraced, modeMetered}
	default:
		return []mode{modeUntraced, modeTraced}
	}
}

// stageMetrics folds the program's own stage figures (medians over every
// successful sample) into the engine.* and plan.* layer metrics.
func stageMetrics(out map[string]float64, samples []opSample) {
	var view, block, plan, train, eval, total, rest, models, pushed []float64
	for _, s := range samples {
		if s.fail || !s.staged {
			continue
		}
		view = append(view, s.view)
		block = append(block, s.block)
		plan = append(plan, s.plan)
		train = append(train, s.train)
		eval = append(eval, s.eval)
		total = append(total, s.total)
		rest = append(rest, s.total-s.view-s.block-s.plan-s.train-s.eval)
		models = append(models, float64(s.models))
		pushed = append(pushed, float64(s.pushed))
	}
	out["engine.view_ms"] = median(view)
	out["engine.block_ms"] = median(block)
	out["plan.stage_ms"] = median(plan)
	out["engine.train_ms"] = median(train)
	out["engine.eval_ms"] = median(eval)
	out["engine.total_ms"] = median(total)
	out["engine.unattributed_ms"] = median(rest)
	out["engine.trained_models_per_op"] = mean(models)
	out["plan.pushed_per_op"] = mean(pushed)
}

// overheadMetrics compares the interleaved modes. Both quartile ranges are
// reported beside the overheads, so an overhead smaller than the ranges is
// read as noise.
func overheadMetrics(out map[string]float64, samples []opSample, n int) {
	u := byTemplate(samples, modeUntraced, n, latency)
	t := byTemplate(samples, modeTraced, n, latency)
	m := byTemplate(samples, modeMetered, n, latency)
	base := mixP50(u)
	if base == 0 {
		return
	}
	if v := mixP50(t); v > 0 {
		out["obs.trace_overhead_pct"] = 100 * (v - base) / base
		out["obs.traced_iqr_pct"] = meanSpread(t)
	}
	out["obs.untraced_iqr_pct"] = meanSpread(u)
	if v := mixP50(m); v > 0 {
		out["obs.meter_overhead_pct"] = 100 * (v - base) / base
	}
}

// meanSpread is the mean over templates of each template's interquartile
// range as a percentage of its median.
func meanSpread(perTemplate [][]float64) float64 {
	var xs []float64
	for _, t := range perTemplate {
		if len(t) >= 2 {
			xs = append(xs, spreadPct(t))
		}
	}
	return mean(xs)
}

// metricLines renders the report's metrics, one "name value unit" line each,
// in the contract's order.
func (r *report) metricLines(defs []metricDef) []string {
	var lines []string
	for _, d := range defs {
		if v, ok := r.Metrics[d.Name]; ok {
			lines = append(lines, fmt.Sprintf("%-32s %14.4f %s", d.Name, v, d.Unit))
		}
	}
	return lines
}

// sortedNotes orders the failure notes and keeps the first max of them.
func sortedNotes(notes []string, max int) []string {
	sort.Strings(notes)
	if len(notes) > max {
		notes = append(notes[:max:max], fmt.Sprintf("... and %d more", len(notes)-max))
	}
	return notes
}
