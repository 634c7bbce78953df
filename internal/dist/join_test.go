package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hyper/internal/fault"
)

// TestWorkerJoinLifecycle runs a worker's registration against an in-process
// coordinator: Join registers it, heartbeats keep it assignable well past
// the lease although its first beat fails to a heartbeat fault rule, a beat
// answered 404 by a restarted coordinator makes it register again, and
// cancelling Join deregisters it.
func TestWorkerJoinLifecycle(t *testing.T) {
	const ttl = 300 * time.Millisecond
	var coord atomic.Pointer[Coordinator]
	restart := func() *Coordinator {
		c := NewCoordinator(CoordinatorConfig{TTL: ttl, Secret: "s3cret"})
		coord.Store(c)
		return c
	}
	c := restart()
	cs := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		coord.Load().Handler().ServeHTTP(rw, r)
	}))
	defer cs.Close()

	inj, err := fault.Parse("heartbeat:error:count=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Secret: "s3cret", Fault: inj})
	ws := httptest.NewServer(w.Handler())
	defer ws.Close()
	ctx, leave := context.WithCancel(context.Background())
	left := make(chan struct{})
	go func() {
		defer close(left)
		w.Join(ctx, cs.URL+"/", ws.URL, "w1", 20*time.Millisecond, t.Logf)
	}()
	defer func() { leave(); <-left }()

	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("registration", func() bool { return c.WorkersAlive() == 1 })
	if infos := c.WorkerInfos(); infos[0].ID != "w1" || infos[0].URL != ws.URL {
		t.Fatalf("registered %+v, want w1 at %s", infos[0], ws.URL)
	}
	waitFor("the heartbeat fault", func() bool { return inj.Fired() == 1 })
	// Three leases later the worker is assignable on heartbeats alone, the
	// failed beat notwithstanding.
	time.Sleep(3 * ttl)
	if c.WorkersAlive() != 1 {
		t.Fatalf("lease lapsed despite heartbeats: %+v", c.WorkerInfos())
	}

	c = restart()
	waitFor("re-registration with the restarted coordinator", func() bool { return c.WorkersAlive() == 1 })

	leave()
	<-left
	if infos := c.WorkerInfos(); len(infos) != 0 {
		t.Fatalf("a worker that left is still registered: %+v", infos)
	}
}

func TestNextBeatDelay(t *testing.T) {
	const base = 5 * time.Second
	cases := []struct {
		name   string
		fails  int
		jitter float64
		want   time.Duration
	}{
		{"healthy-low-jitter", 0, 0, 4 * time.Second},
		{"healthy-high-jitter", 0, 0.999, time.Duration(float64(base) * (0.8 + 0.4*0.999))},
		{"one-failure-doubles", 1, 0.5, 10 * time.Second},
		{"two-failures-quadruple", 2, 0.5, 20 * time.Second},
		{"backoff-capped-at-8x", 9, 0.5, 30 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := nextBeatDelay(base, tc.fails, tc.jitter)
			// Tolerate float rounding in the jitter scale.
			if diff := got - tc.want; diff < -time.Millisecond || diff > time.Millisecond {
				t.Fatalf("nextBeatDelay(%v, %d, %v) = %v, want ~%v", base, tc.fails, tc.jitter, got, tc.want)
			}
		})
	}

	// Jitter must spread, never collapse the delay to zero.
	if d := nextBeatDelay(0, 0, 0); d < time.Millisecond {
		t.Fatalf("zero base collapsed to %v", d)
	}
	// Monotone in failures until the cap.
	prev := time.Duration(0)
	for fails := 0; fails <= 3; fails++ {
		d := nextBeatDelay(base, fails, 0.5)
		if d < prev {
			t.Fatalf("delay shrank at fails=%d: %v < %v", fails, d, prev)
		}
		prev = d
	}
}
