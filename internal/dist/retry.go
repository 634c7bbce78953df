package dist

import (
	"context"
	"errors"
	"sync"
	"time"

	"hyper/internal/fault"
	"hyper/internal/obs"
	"hyper/internal/stats"
)

// The retry schedule every coordinator->worker RPC (frame ships and evals)
// runs under: each attempt gets its own RPCTimeout, up to MaxAttempts tries
// (both CoordinatorConfig fields) back off exponentially from baseBackoff,
// capped at maxBackoff, with seeded jitter, and each distributed operation
// (one what-if) gets a budget of retryBudget retries across all of its RPCs,
// so a systemically failing cluster degrades to requeue/local-fallback
// instead of retrying forever.
const (
	baseBackoff = 25 * time.Millisecond
	maxBackoff  = time.Second
	retryBudget = 16
	// jitterSeed seeds the backoff jitter stream; jitter shapes only sleep
	// durations, never results.
	jitterSeed = 1
)

// backoff returns the wait before retry number attempt (1-based): capped
// exponential with half-jitter from the seeded stream, so two coordinators
// sleep the same schedule (reproducible chaos runs) while distinct RPCs
// still decorrelate.
func backoff(attempt int, rng *stats.RNG) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}

// Degradation reason codes, comma-joined (sorted, deduplicated) into the
// degraded_reason a response reports. Each names one rung of the ladder the
// query fell down: a worker failing mid-query, quarantined workers being
// skipped, or shards falling back to coordinator-local evaluation.
const (
	degradeWorkerLost    = "worker_lost"
	degradeQuarantine    = "quarantine"
	degradeLocalFallback = "local_fallback"
)

// queryRun is the per-operation resilience scope: the retry budget shared
// by the operation's RPCs, the workers it has given up on (a worker that
// failed this query is not reassigned shards of this query, whatever its
// breaker does), and the degradation events that make up the response's
// degraded/degraded_reason report.
type queryRun struct {
	mu     sync.Mutex
	budget int
	bad    map[string]bool
	events map[string]bool
}

func newQueryRun() *queryRun {
	return &queryRun{budget: retryBudget}
}

// note records one degradation event.
func (r *queryRun) note(reason string) {
	r.mu.Lock()
	if r.events == nil {
		r.events = make(map[string]bool)
	}
	r.events[reason] = true
	r.mu.Unlock()
}

// markBad excludes a worker from the rest of this operation.
func (r *queryRun) markBad(id string) {
	r.mu.Lock()
	if r.bad == nil {
		r.bad = make(map[string]bool)
	}
	r.bad[id] = true
	r.mu.Unlock()
}

func (r *queryRun) isBad(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bad[id]
}

// spend consumes one retry from the budget, reporting whether one was left.
func (r *queryRun) spend() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget <= 0 {
		return false
	}
	r.budget--
	return true
}

// degraded renders the ladder report: false/"" for a run that used the full
// healthy fleet, else true plus the sorted comma-joined reason codes.
func (r *queryRun) degraded() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) == 0 {
		return false, ""
	}
	reasons := make([]string, 0, len(r.events))
	// Fixed ladder order (top rung first) keeps the report stable without a
	// sort over arbitrary strings.
	for _, code := range []string{degradeWorkerLost, degradeQuarantine, degradeLocalFallback} {
		if r.events[code] {
			reasons = append(reasons, code)
		}
	}
	out := ""
	for i, c := range reasons {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return true, out
}

// retry runs fn under the retry schedule: each attempt gets its own
// RPCTimeout deadline, terminal errors and parent-context cancellation return
// immediately, and retryable errors back off (seeded jitter) and spend one
// unit of the operation's budget. fn sees the per-attempt context.
func (c *Coordinator) retry(ctx context.Context, run *queryRun, fn func(context.Context) error) error {
	var err error
	for attempt := 1; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
		err = fn(actx)
		cancel()
		if err == nil {
			return nil
		}
		var term terminalError
		if errors.As(err, &term) {
			return err
		}
		if ctx.Err() != nil {
			// The operation itself was cancelled (client gone, server
			// shutdown) — an attempt deadline alone leaves ctx live and
			// stays retryable.
			return ctx.Err()
		}
		if attempt >= c.cfg.MaxAttempts || !run.spend() {
			return err
		}
		c.retries.Inc()
		// A retried RPC breaks the exact shipped==received accounting for
		// this query; charging the meter waives its reconciliation invariant.
		obs.MeterFromContext(ctx).Charge(obs.MeterJSON{Retries: 1})
		wait := c.jitteredBackoff(attempt)
		c.logf("dist: retrying after %v (attempt %d/%d): %v", wait, attempt, c.cfg.MaxAttempts, err)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// jitteredBackoff draws the next backoff from the coordinator's seeded
// jitter stream.
func (c *Coordinator) jitteredBackoff(attempt int) time.Duration {
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	return backoff(attempt, c.jitter)
}

// faultHit consults the coordinator's injector at a client-side point.
func (c *Coordinator) faultHit(p fault.Point) error {
	return c.cfg.Fault.Hit(p)
}
