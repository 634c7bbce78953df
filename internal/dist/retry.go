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

// RetryPolicy is the unified failure-handling knob for every
// coordinator->worker RPC (frame ships and evals). One policy replaces
// the ad-hoc per-call retry logic: each RPC gets a per-attempt timeout and
// up to MaxAttempts tries with capped exponential backoff and seeded
// jitter, and each distributed operation (one what-if) gets a
// Budget of retries across all of its RPCs so a systemically failing
// cluster degrades to requeue/local-fallback instead of retrying forever.
// The zero value takes the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the per-RPC attempt cap (first try included).
	// Default 3.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff ceiling; attempt n waits up
	// to BaseBackoff<<n (half of it fixed, half jittered). Default 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 1s.
	MaxBackoff time.Duration
	// RPCTimeout bounds each attempt (evaluations can be legitimately
	// long; this is a liveness bound, not a latency target). Default 2m.
	RPCTimeout time.Duration
	// Budget caps retries per distributed operation across all workers and
	// RPCs. Default 16.
	Budget int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.RPCTimeout <= 0 {
		p.RPCTimeout = 2 * time.Minute
	}
	if p.Budget <= 0 {
		p.Budget = 16
	}
	return p
}

// backoff returns the wait before retry number attempt (1-based): capped
// exponential with half-jitter from the seeded stream, so two coordinators
// configured with the same seed sleep the same schedule (reproducible chaos
// runs) while distinct RPCs still decorrelate.
func (p RetryPolicy) backoff(attempt int, rng *stats.RNG) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
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
	pol RetryPolicy

	mu     sync.Mutex
	budget int
	bad    map[string]bool
	events map[string]bool
}

func newQueryRun(pol RetryPolicy) *queryRun {
	pol = pol.withDefaults()
	return &queryRun{pol: pol, budget: pol.Budget}
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

// retry runs fn under the policy: each attempt gets its own RPCTimeout
// deadline, terminal errors and parent-context cancellation return
// immediately, and retryable errors back off (seeded jitter) and spend one
// unit of the operation's budget. fn sees the per-attempt context.
func (c *Coordinator) retry(ctx context.Context, run *queryRun, fn func(context.Context) error) error {
	pol := run.pol
	var err error
	for attempt := 1; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, pol.RPCTimeout)
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
		if attempt >= pol.MaxAttempts || !run.spend() {
			return err
		}
		c.retries.Inc()
		// A retried RPC breaks the exact shipped==received accounting for
		// this query; charging the meter waives its reconciliation invariant.
		obs.MeterFromContext(ctx).Charge(obs.MeterJSON{Retries: 1})
		wait := c.jitteredBackoff(pol, attempt)
		c.logf("dist: retrying after %v (attempt %d/%d): %v", wait, attempt, pol.MaxAttempts, err)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// jitteredBackoff draws the next backoff from the coordinator's seeded
// jitter stream.
func (c *Coordinator) jitteredBackoff(pol RetryPolicy, attempt int) time.Duration {
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	return pol.backoff(attempt, c.jitter)
}

// faultHit consults the coordinator's injector at a client-side point.
func (c *Coordinator) faultHit(p fault.Point) error {
	return c.cfg.Fault.Hit(p)
}
