package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"

	"hyper/internal/fault"
)

// Join keeps the worker registered with the coordinator at coordinatorURL,
// as id dialled back at advertiseURL, until ctx ends, and then deregisters
// it so the coordinator requeues at once instead of waiting out the lease.
// It registers (retrying with a doubling backoff), heartbeats every `every`
// (5s when not positive; a transient failure backs the next beat off, see
// nextBeatDelay), and re-registers when a beat answers 404 because the
// coordinator restarted or dropped it. A heartbeat first consults the
// worker's fault injector at the heartbeat point. Registration events go to
// logf whatever the worker's own Logf. Join returns once it has deregistered;
// a graceful shutdown drains the worker first, so the lease outlives the
// drain.
func (w *Worker) Join(ctx context.Context, coordinatorURL, advertiseURL, id string, every time.Duration, logf func(format string, args ...any)) {
	if every <= 0 {
		every = 5 * time.Second
	}
	coordinatorURL = strings.TrimRight(coordinatorURL, "/")
	self := pathWorkers + "/" + url.PathEscape(id)
	client := &http.Client{Timeout: 10 * time.Second}
	call := func(ctx context.Context, method, path string, body []byte) (int, error) {
		req, err := http.NewRequestWithContext(ctx, method, coordinatorURL+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		setSecret(req, w.cfg.Secret)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	announce, _ := json.Marshal(RegisterRequest{ID: id, URL: advertiseURL}) // two strings cannot fail
	register := func() error {
		status, err := call(ctx, http.MethodPost, pathWorkers, announce)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("register: status %d", status)
		}
		return err
	}
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := call(dctx, http.MethodDelete, self, nil); err != nil {
			logf("deregistering from %s: %v", coordinatorURL, err)
		}
	}()

	for backoff := time.Second; ; backoff = min(2*backoff, 30*time.Second) {
		err := register()
		if err == nil {
			break
		}
		logf("registering with %s: %v (retrying in %s)", coordinatorURL, err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return
		}
	}
	logf("registered with coordinator %s", coordinatorURL)

	// Jitter, so a restarted coordinator is not hit by every worker in
	// lockstep.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	fails := 0
	timer := time.NewTimer(every)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-ctx.Done():
			return
		}
		status, err := 0, w.cfg.Fault.Hit(fault.PointHeartbeat)
		if err == nil {
			status, err = call(ctx, http.MethodPost, self+"/beat", nil)
		}
		if err == nil && status >= 500 {
			err = fmt.Errorf("status %d", status)
		}
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			fails++
			logf("heartbeat: %v (backing off to %s)", err, nextBeatDelay(every, fails, 0.5).Round(time.Millisecond))
		case status == http.StatusNotFound:
			// The coordinator restarted or dropped us after a failure:
			// re-register so shards flow again.
			fails = 0
			if err := register(); err != nil {
				logf("re-registering: %v", err)
			} else {
				logf("re-registered with coordinator %s", coordinatorURL)
			}
		default:
			fails = 0
			if status != http.StatusOK {
				logf("heartbeat: status %d", status)
			}
		}
		timer.Reset(nextBeatDelay(every, fails, rng.Float64()))
	}
}

// nextBeatDelay is the interval until the next heartbeat: the configured
// base after a success, doubling per consecutive transient failure (capped
// at 8x base or 30s, whichever is smaller — the lease should outlive a
// short coordinator blip, and backing off further would forfeit it for no
// gain). jitter in [0,1) spreads the delay over ±20% so a fleet of workers
// doesn't probe a recovering coordinator in lockstep.
func nextBeatDelay(base time.Duration, fails int, jitter float64) time.Duration {
	d := base
	for i := 0; i < fails && i < 3; i++ {
		d *= 2
	}
	d = min(d, 30*time.Second)
	// Scale into [0.8, 1.2).
	return max(time.Duration(float64(d)*(0.8+0.4*jitter)), time.Millisecond)
}
