// Package jobs is HypeR's asynchronous query-job subsystem: expensive
// queries (how-to solves, large what-ifs, batches) are submitted as tracked
// jobs with an ID, a priority, an optional deadline, cancellation, and
// progress counters, instead of blocking an HTTP handler for their whole
// runtime. A Manager owns a bounded priority queue and a fixed worker pool;
// admission control rejects submissions when the queue is full (the serving
// layer maps that to HTTP 429), and a per-session concurrency limit keeps
// one tenant from monopolizing the pool.
//
// Lifecycle: a job is queued -> running -> done | failed | cancelled |
// expired. Cancellation and deadlines are delivered through the
// context.Context handed to the job's Runner; the compute stack (engine
// tuple evaluation, how-to candidate scoring, IP branch and bound) observes
// that context mid-solve, so a cancelled job stops burning cores promptly
// rather than running to completion with its result discarded.
package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hyper/internal/obs"
)

// State is a job's lifecycle state.
type State int

// Job lifecycle states. Queued and Running are live; the rest are terminal.
const (
	StateQueued State = iota
	StateRunning
	StateDone      // runner returned a result
	StateFailed    // runner returned an error
	StateCancelled // cancelled while queued or running
	StateExpired   // deadline passed while queued or running
)

// String names the state in wire form.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	case StateExpired:
		return "expired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s != StateQueued && s != StateRunning }

// Admission errors, returned by Submit and mapped to HTTP statuses by the
// serving layer.
var (
	// ErrQueueFull means the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrSessionLimit means the submitting session already has its maximum
	// number of live jobs (HTTP 429).
	ErrSessionLimit = errors.New("jobs: per-session job limit reached")
	// ErrDraining means the manager is shutting down and admits nothing
	// (HTTP 503).
	ErrDraining = errors.New("jobs: manager is draining")
)

// Progress carries a job's observable progress counters; the compute stack
// reports into it through the progress callback the serving layer wires up,
// and pollers read a consistent snapshot. The primary stage ("tuples",
// "candidates", "combos", "queries") tracks work units; the engine's
// sharded evaluation path additionally reports the dedicated "shards" stage
// (completed shards of the current plan), which is kept alongside — not in
// place of — the primary counters, so pollers see both how many tuples are
// done and how far the shard fan-out has progressed.
type Progress struct {
	mu          sync.Mutex
	stage       string
	done        int64
	total       int64
	shardsDone  int64
	shardsTotal int64
}

// Report replaces the progress counters (stage is e.g. "candidates" or
// "tuples"; total <= 0 means unknown). The "shards" stage updates the
// per-shard counters without disturbing the primary stage.
func (p *Progress) Report(stage string, done, total int) {
	p.mu.Lock()
	if stage == "shards" {
		p.shardsDone, p.shardsTotal = int64(done), int64(total)
	} else {
		p.stage, p.done, p.total = stage, int64(done), int64(total)
	}
	p.mu.Unlock()
}

// Snapshot returns the current primary stage and counters.
func (p *Progress) Snapshot() (stage string, done, total int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stage, p.done, p.total
}

// ShardSnapshot returns the shard-stage counters (0, 0 until the engine
// reports from a sharded evaluation).
func (p *Progress) ShardSnapshot() (done, total int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shardsDone, p.shardsTotal
}

// Runner executes a job's work. It must honor ctx: when the job is
// cancelled or its deadline passes, ctx is cancelled and the runner should
// return promptly (typically with ctx.Err()). progress is never nil.
type Runner func(ctx context.Context, progress *Progress) (any, error)

// Job is one tracked unit of work. All mutable fields are guarded by the
// manager's lock; accessors return snapshots.
type Job struct {
	id       string
	session  string
	kind     string
	priority int
	deadline time.Time // zero = none
	// dataVersion is the MVCC snapshot version the job was pinned to at
	// submission (0 when the session is unversioned); the runner closure
	// carries the actual pinned handle, this field only surfaces it.
	dataVersion int64
	runner      Runner
	progress    Progress

	seq       uint64
	submitted time.Time

	// Guarded by the owning manager's mu.
	state     State
	traceID   string // set when the job starts, if the manager traces
	started   time.Time
	finished  time.Time
	result    any
	err       error
	cancelled bool // cancel requested (distinguishes cancel from deadline)
	cancelRun context.CancelFunc
	ctx       context.Context // set when the job starts running
	heapIdx   int             // index in the queued heap, -1 once popped
	expiry    *time.Timer     // expires the job if its deadline passes while queued
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	ID       string
	Session  string
	Kind     string
	Priority int
	Deadline time.Time // zero = none
	// DataVersion is the MVCC snapshot version pinned at submission
	// (0 = unversioned session).
	DataVersion int64
	State       State

	Submitted time.Time
	Started   time.Time // zero until running
	Finished  time.Time // zero until terminal

	Stage       string
	Done, Total int64
	// ShardsDone/ShardsTotal track the engine's shard fan-out within the
	// current evaluation (zero until a sharded stage reports).
	ShardsDone, ShardsTotal int64
	// TraceID names the job's execution trace ("" until it starts, or when
	// the manager does not trace).
	TraceID string

	Result any
	Err    error
}

// Wait returns how long the job waited in the queue (so far, if still
// queued).
func (s Snapshot) Wait() time.Duration {
	switch {
	case !s.Started.IsZero():
		return s.Started.Sub(s.Submitted)
	case s.State == StateQueued:
		return time.Since(s.Submitted)
	case !s.Finished.IsZero():
		// Terminal without running (cancelled/expired in queue).
		return s.Finished.Sub(s.Submitted)
	default:
		return 0
	}
}

// Run returns how long the job has been (or was) running.
func (s Snapshot) Run() time.Duration {
	if s.Started.IsZero() {
		return 0
	}
	if s.Finished.IsZero() {
		return time.Since(s.Started)
	}
	return s.Finished.Sub(s.Started)
}

// Config tunes a Manager; the zero value is usable.
type Config struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions past it fail with ErrQueueFull (default 64).
	QueueDepth int
	// PerSessionLimit caps one session's live (queued + running) jobs;
	// 0 means no limit.
	PerSessionLimit int
	// Retention is how many terminal jobs are kept for polling before the
	// oldest are forgotten (default 256).
	Retention int
	// Trace, when non-nil, receives one trace per executed job: a
	// queue_wait span (submitted -> started) and a run span carrying the
	// runner's own span tree. The trace id is surfaced in job snapshots so
	// a polling client can fetch the tree from /v1/traces/{id}.
	Trace *obs.Recorder
	// Usage, when non-nil, receives the cost meter of every executed job
	// after its runner returns. The meter rides the runner's context, so
	// engine/how-to/IP charges accumulate exactly as they do for
	// synchronous queries; the serving layer folds the vector into its
	// usage table under the job's query shape.
	Usage func(kind string, m *obs.Meter, elapsed time.Duration, err error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Retention <= 0 {
		c.Retention = 256
	}
	return c
}

// Stats is a point-in-time snapshot of the manager's gauges and counters.
type Stats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`

	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Expired   uint64 `json:"expired"`
	Rejected  uint64 `json:"rejected"`

	// P50WaitMs / P95WaitMs are queue-wait quantiles over every job started
	// since the manager did, interpolated within obs.LatencyBucketsMs buckets
	// (like the /v1/stats endpoint quantiles), not exact order statistics.
	P50WaitMs float64 `json:"p50_wait_ms"`
	P95WaitMs float64 `json:"p95_wait_ms"`
}

// Manager owns the queue, the worker pool, and the job table.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond
	queue     jobHeap // exactly the jobs in StateQueued
	byID      map[string]*Job
	terminal  []string // terminal job ids, oldest first, for retention
	perSess   map[string]int
	seq       uint64
	running   int
	draining  bool
	stopped   bool
	idle      chan struct{}  // closed when draining and running == 0
	waits     *obs.Histogram // queue wait of every started job, ms
	completed uint64
	failed    uint64
	cancelled uint64
	expired   uint64
	rejected  uint64

	wg sync.WaitGroup
}

// NewManager starts a manager with cfg.Workers worker goroutines.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:     cfg.withDefaults(),
		byID:    make(map[string]*Job),
		perSess: make(map[string]int),
		idle:    make(chan struct{}),
		waits:   obs.NewHistogram(obs.LatencyBucketsMs),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// SubmitOptions parameterizes one submission.
type SubmitOptions struct {
	// Session scopes the per-session limit and list filtering.
	Session string
	// Kind is an opaque label ("whatif", "howto", ...) surfaced in listings.
	Kind string
	// Priority orders the queue: higher runs first; equal priorities run in
	// submission order.
	Priority int
	// Deadline, when non-zero, expires the job (queued or running) at that
	// time; the running context carries it.
	Deadline time.Time
	// DataVersion records the MVCC snapshot version the submitter resolved
	// and pinned for the job's runner (0 for unversioned sessions). Appends
	// after submission never change what a queued job computes over.
	DataVersion int64
}

// Submit enqueues a job. It fails fast with ErrQueueFull, ErrSessionLimit,
// or ErrDraining; admission rejections are counted in Stats.Rejected.
func (m *Manager) Submit(opts SubmitOptions, run Runner) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || m.stopped {
		m.rejected++
		return nil, ErrDraining
	}
	if m.queue.Len() >= m.cfg.QueueDepth {
		m.rejected++
		return nil, ErrQueueFull
	}
	if m.cfg.PerSessionLimit > 0 && m.perSess[opts.Session] >= m.cfg.PerSessionLimit {
		m.rejected++
		return nil, ErrSessionLimit
	}
	m.seq++
	j := &Job{
		id:          fmt.Sprintf("j%d", m.seq),
		session:     opts.Session,
		kind:        opts.Kind,
		priority:    opts.Priority,
		deadline:    opts.Deadline,
		dataVersion: opts.DataVersion,
		runner:      run,
		seq:         m.seq,
		submitted:   time.Now(),
		state:       StateQueued,
	}
	m.byID[j.id] = j
	m.perSess[j.session]++
	heap.Push(&m.queue, j)
	if !j.deadline.IsZero() {
		j.expiry = time.AfterFunc(time.Until(j.deadline), func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			m.removeQueuedLocked(j, context.DeadlineExceeded, StateExpired)
		})
	}
	m.cond.Signal()
	return j, nil
}

// worker pulls the highest-priority runnable job and executes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.run(j)
	}
}

// next blocks until a queued job is available (expiring one whose deadline
// passed before its timer took it off the heap), or returns nil when the
// manager stops.
func (m *Manager) next() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for m.queue.Len() == 0 && !m.stopped {
			m.cond.Wait()
		}
		if m.queue.Len() == 0 && m.stopped {
			return nil
		}
		j := heap.Pop(&m.queue).(*Job)
		if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
			m.finishLocked(j, nil, context.DeadlineExceeded, StateExpired)
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		m.waits.Observe(float64(j.started.Sub(j.submitted)) / float64(time.Millisecond))
		ctx := context.Background()
		var cancel context.CancelFunc
		if !j.deadline.IsZero() {
			ctx, cancel = context.WithDeadline(ctx, j.deadline)
		} else {
			ctx, cancel = context.WithCancel(ctx)
		}
		j.cancelRun = cancel
		j.ctx = ctx
		m.running++
		return j
	}
}

// run executes a job's runner and records its terminal state.
func (m *Manager) run(j *Job) {
	runCtx := j.ctx
	var tr *obs.Trace
	var rsp *obs.Span
	if m.cfg.Trace != nil {
		tr = obs.NewTrace("job:" + j.kind)
		tr.Root().Set("job_id", j.id)
		tr.Root().Set("session", j.session)
		wait := tr.Root().ChildAt("queue_wait", j.submitted)
		wait.EndAt(j.started)
		runCtx, rsp = obs.Start(tr.Context(j.ctx), "run")
		m.mu.Lock()
		j.traceID = tr.ID
		m.mu.Unlock()
	}
	var meter *obs.Meter
	if m.cfg.Usage != nil {
		meter = obs.NewMeter()
		runCtx = obs.ContextWithMeter(runCtx, meter)
	}
	res, err := func() (res any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("jobs: runner panicked: %v", r)
			}
		}()
		return j.runner(runCtx, &j.progress)
	}()
	j.cancelRun()
	if tr != nil {
		rsp.Set("error", err != nil)
		rsp.End()
		tr.Finish()
		m.cfg.Trace.Record(tr)
	}
	if meter != nil {
		m.cfg.Usage(j.kind, meter, time.Since(j.started), err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	state := StateDone
	switch {
	case j.cancelled:
		// A requested cancel wins regardless of what the runner returned.
		state, res, err = StateCancelled, nil, context.Canceled
	case errors.Is(err, context.DeadlineExceeded), errors.Is(j.ctx.Err(), context.DeadlineExceeded):
		state, res = StateExpired, nil
		if err == nil {
			err = context.DeadlineExceeded
		}
	case err != nil:
		state, res = StateFailed, nil
	}
	m.finishLocked(j, res, err, state)
	if m.draining && m.running == 0 {
		close(m.idle)
	}
}

// finishLocked moves a live job to a terminal state. Caller holds m.mu.
func (m *Manager) finishLocked(j *Job, res any, err error, state State) {
	j.state = state
	j.result = res
	j.err = err
	j.finished = time.Now()
	if j.expiry != nil {
		j.expiry.Stop()
	}
	// Release the runner closure and context: retained terminal jobs must
	// not pin the session (database, cache) their runner captured.
	j.runner = nil
	j.cancelRun = nil
	j.ctx = nil
	m.perSess[j.session]--
	if m.perSess[j.session] <= 0 {
		delete(m.perSess, j.session)
	}
	switch state {
	case StateDone:
		m.completed++
	case StateFailed:
		m.failed++
	case StateCancelled:
		m.cancelled++
	case StateExpired:
		m.expired++
	}
	m.terminal = append(m.terminal, j.id)
	for len(m.terminal) > m.cfg.Retention {
		old := m.terminal[0]
		m.terminal = m.terminal[1:]
		delete(m.byID, old)
	}
}

// Cancel requests cancellation of a job. A queued job goes terminal
// immediately; a running job has its context cancelled and goes terminal
// when its runner returns. Cancelling a terminal job is a no-op. The second
// return is false when no job with that id exists.
func (m *Manager) Cancel(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return nil, false
	}
	m.cancelLocked(j)
	return j, true
}

func (m *Manager) cancelLocked(j *Job) {
	switch j.state {
	case StateQueued:
		j.cancelled = true
		m.removeQueuedLocked(j, context.Canceled, StateCancelled)
	case StateRunning:
		if !j.cancelled {
			j.cancelled = true
			j.cancelRun()
		}
	}
}

// removeQueuedLocked takes a still-queued job off the heap into a terminal
// state, so its queue and per-session slots free up for admission control
// at once rather than when a worker happens to pop it (a cancel, or a
// deadline passing in the queue). It is a no-op once the job has left the
// queue. Caller holds m.mu.
func (m *Manager) removeQueuedLocked(j *Job, err error, state State) {
	if j.state != StateQueued {
		return
	}
	heap.Remove(&m.queue, j.heapIdx)
	m.finishLocked(j, nil, err, state)
}

// CancelSession cancels every live job of a session (used when the session
// is deleted); it returns how many jobs were signalled.
func (m *Manager) CancelSession(session string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.byID {
		if j.session == session && !j.state.Terminal() {
			m.cancelLocked(j)
			n++
		}
	}
	return n
}

// Get returns a snapshot of the job with the given id.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return Snapshot{}, false
	}
	return m.snapshotLocked(j), true
}

// List returns snapshots of every known job (live and retained terminal),
// filtered by session and/or state when non-empty, newest submission first.
func (m *Manager) List(session string, state State, filterState bool) []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.byID))
	for _, j := range m.byID {
		if session != "" && j.session != session {
			continue
		}
		if filterState && j.state != state {
			continue
		}
		out = append(out, m.snapshotLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Submitted.After(out[k].Submitted) })
	return out
}

func (m *Manager) snapshotLocked(j *Job) Snapshot {
	stage, done, total := j.progress.Snapshot()
	shardsDone, shardsTotal := j.progress.ShardSnapshot()
	return Snapshot{
		ID:          j.id,
		Session:     j.session,
		Kind:        j.kind,
		Priority:    j.priority,
		Deadline:    j.deadline,
		DataVersion: j.dataVersion,
		State:       j.state,
		Submitted:   j.submitted,
		Started:     j.started,
		Finished:    j.finished,
		Stage:       stage,
		Done:        done,
		Total:       total,
		ShardsDone:  shardsDone,
		ShardsTotal: shardsTotal,
		TraceID:     j.traceID,
		Result:      j.result,
		Err:         j.err,
	}
}

// Stats returns the manager's gauges, counters and wait quantiles.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Queued:    m.queue.Len(),
		Running:   m.running,
		Completed: m.completed,
		Failed:    m.failed,
		Cancelled: m.cancelled,
		Expired:   m.expired,
		Rejected:  m.rejected,
		P50WaitMs: m.waits.Quantile(0.50),
		P95WaitMs: m.waits.Quantile(0.95),
	}
}

// Drain shuts the manager down gracefully: it stops admitting jobs, cancels
// everything still queued, and waits for running jobs to finish until ctx
// expires — at which point running jobs are cancelled too and awaited (they
// return promptly because the compute stack observes their contexts). The
// worker pool exits before Drain returns.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return errors.New("jobs: already draining")
	}
	m.draining = true
	for m.queue.Len() > 0 {
		j := heap.Pop(&m.queue).(*Job)
		j.cancelled = true
		m.finishLocked(j, nil, context.Canceled, StateCancelled)
	}
	var drainErr error
	if m.running == 0 {
		close(m.idle)
	}
	idle := m.idle
	m.mu.Unlock()

	select {
	case <-idle:
	case <-ctx.Done():
		drainErr = ctx.Err()
		// Bounded wait exhausted: cancel running jobs and wait for them
		// (prompt, since runners observe their contexts).
		m.mu.Lock()
		for _, j := range m.byID {
			if j.state == StateRunning {
				m.cancelLocked(j)
			}
		}
		m.mu.Unlock()
		<-idle
	}

	m.mu.Lock()
	m.stopped = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	return drainErr
}

// jobHeap orders queued jobs by descending priority, then submission order.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*h = old[:n-1]
	return j
}
