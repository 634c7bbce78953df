package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitState polls until the job reaches a terminal state or the timeout
// passes, returning the final snapshot.
func waitTerminal(t *testing.T, m *Manager, id string, timeout time.Duration) Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if s.State.Terminal() {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
	s, _ := m.Get(id)
	t.Fatalf("job %s never terminated (state %s)", id, s.State)
	return Snapshot{}
}

func TestJobRunsToCompletion(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Drain(context.Background())
	j, err := m.Submit(SubmitOptions{Session: "s", Kind: "test"}, func(ctx context.Context, p *Progress) (any, error) {
		p.Report("steps", 3, 3)
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, m, j.ID(), 5*time.Second)
	if s.State != StateDone || s.Result != 42 || s.Err != nil {
		t.Fatalf("snapshot = %+v, want done/42", s)
	}
	if s.Stage != "steps" || s.Done != 3 || s.Total != 3 {
		t.Errorf("progress = %s %d/%d, want steps 3/3", s.Stage, s.Done, s.Total)
	}
	if s.Started.IsZero() || s.Finished.IsZero() || s.Finished.Before(s.Started) {
		t.Errorf("timestamps inconsistent: %+v", s)
	}
	st := m.Stats()
	if st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
}

func TestJobFailure(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	boom := errors.New("boom")
	j, _ := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		return nil, boom
	})
	s := waitTerminal(t, m, j.ID(), 5*time.Second)
	if s.State != StateFailed || !errors.Is(s.Err, boom) {
		t.Fatalf("snapshot = %+v, want failed/boom", s)
	}
	jp, _ := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		panic("kaboom")
	})
	s = waitTerminal(t, m, jp.ID(), 5*time.Second)
	if s.State != StateFailed || s.Err == nil {
		t.Fatalf("panicking runner: snapshot = %+v, want failed", s)
	}
	if m.Stats().Failed != 2 {
		t.Errorf("failed = %d, want 2", m.Stats().Failed)
	}
}

// TestPriorityOrder pins the scheduling order: with one busy worker, queued
// jobs run highest priority first, FIFO within a priority.
func TestPriorityOrder(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())

	gate := make(chan struct{})
	started := make(chan struct{})
	m.Submit(SubmitOptions{Kind: "blocker"}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started // the worker is now busy; everything below queues

	var mu sync.Mutex
	var order []string
	mk := func(name string, prio int) {
		m.Submit(SubmitOptions{Kind: name, Priority: prio}, func(ctx context.Context, p *Progress) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		})
	}
	mk("low-a", 0)
	mk("high", 5)
	mk("low-b", 0)
	mk("mid", 3)
	close(gate)

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d jobs ran", n)
		}
		time.Sleep(time.Millisecond)
	}
	want := []string{"high", "mid", "low-a", "low-b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueFullAndSessionLimitRejection(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 3, PerSessionLimit: 2})
	defer m.Drain(context.Background())

	gate := make(chan struct{})
	defer close(gate)
	// Buffered: the first job may start before the test waits on started,
	// and its non-blocking send must not be lost.
	started := make(chan struct{}, 1)
	block := func(ctx context.Context, p *Progress) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return nil, nil
	}
	// One running (session a) + two queued leaves one queue slot free.
	if _, err := m.Submit(SubmitOptions{Session: "a"}, block); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(SubmitOptions{Session: "b"}, block); err != nil {
		t.Fatal(err)
	}
	// Session a already has 2 live jobs: per-session limit fires even though
	// the queue has room.
	if _, err := m.Submit(SubmitOptions{Session: "a"}, block); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(SubmitOptions{Session: "a"}, block); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("err = %v, want ErrSessionLimit", err)
	}
	// Fill the last slot; the queue (3 deep) is then full regardless of
	// session.
	if _, err := m.Submit(SubmitOptions{Session: "b"}, block); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(SubmitOptions{Session: "c"}, block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := m.Stats().Rejected; got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	gate := make(chan struct{})
	started := make(chan struct{})
	m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started
	ran := false
	j, _ := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		ran = true
		return nil, nil
	})
	if _, ok := m.Cancel(j.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	s, _ := m.Get(j.ID())
	if s.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", s.State)
	}
	close(gate)
	// The worker must skip the cancelled job, not run it.
	time.Sleep(20 * time.Millisecond)
	if ran {
		t.Error("cancelled queued job still ran")
	}
	if m.Stats().Cancelled != 1 {
		t.Errorf("cancelled = %d, want 1", m.Stats().Cancelled)
	}
}

// TestCancelQueuedJobFreesQueueSlot pins that cancelling queued jobs frees
// their admission slots immediately — a full queue whose jobs were all
// cancelled must accept new submissions without waiting for a worker to
// pop the stale entries.
func TestCancelQueuedJobFreesQueueSlot(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 2})
	defer m.Drain(context.Background())
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	if _, err := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full, got err = %v", err)
	}
	for _, j := range queued {
		m.Cancel(j.ID())
	}
	// The worker is still blocked, but both queue slots must be free now.
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil }); err != nil {
			t.Fatalf("submit %d after cancelling queued jobs: %v", i, err)
		}
	}
	if got := m.Stats().Queued; got != 2 {
		t.Errorf("queued = %d, want 2", got)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	started := make(chan struct{})
	j, _ := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if _, ok := m.Cancel(j.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	s := waitTerminal(t, m, j.ID(), 5*time.Second)
	if s.State != StateCancelled || !errors.Is(s.Err, context.Canceled) {
		t.Fatalf("snapshot = %+v, want cancelled", s)
	}
	// Cancelling a terminal job is a harmless no-op.
	if _, ok := m.Cancel(j.ID()); !ok {
		t.Error("cancel of terminal job should still find it")
	}
	if got, _ := m.Get(j.ID()); got.State != StateCancelled {
		t.Errorf("state changed to %s after second cancel", got.State)
	}
}

// TestCancelWinsOverResult pins that a cancel requested while running makes
// the job cancelled even if the runner returns a result instead of ctx.Err.
func TestCancelWinsOverResult(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	started := make(chan struct{})
	j, _ := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-ctx.Done()
		return "ignored", nil // sloppy runner swallows the cancel
	})
	<-started
	m.Cancel(j.ID())
	s := waitTerminal(t, m, j.ID(), 5*time.Second)
	if s.State != StateCancelled || s.Result != nil {
		t.Fatalf("snapshot = %+v, want cancelled with no result", s)
	}
}

func TestDeadlineExpiresRunningJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	j, _ := m.Submit(SubmitOptions{Deadline: time.Now().Add(20 * time.Millisecond)}, func(ctx context.Context, p *Progress) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s := waitTerminal(t, m, j.ID(), 5*time.Second)
	if s.State != StateExpired || !errors.Is(s.Err, context.DeadlineExceeded) {
		t.Fatalf("snapshot = %+v, want expired", s)
	}
}

func TestDeadlineExpiresQueuedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	gate := make(chan struct{})
	started := make(chan struct{})
	m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started
	j, _ := m.Submit(SubmitOptions{Deadline: time.Now().Add(10 * time.Millisecond)}, func(ctx context.Context, p *Progress) (any, error) {
		return "should not run", nil
	})
	time.Sleep(30 * time.Millisecond)
	close(gate)
	s := waitTerminal(t, m, j.ID(), 5*time.Second)
	if s.State != StateExpired {
		t.Fatalf("state = %s, want expired (deadline passed in queue)", s.State)
	}
}

// TestDeadlineExpiresJobStillQueued pins that a queued job expires at its
// deadline, not when a worker pops it: with the only worker blocked, the job
// reads expired and its queue slot admits the next submission.
func TestDeadlineExpiresJobStillQueued(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Drain(context.Background())
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started
	j, err := m.Submit(SubmitOptions{Deadline: time.Now().Add(10 * time.Millisecond)}, func(ctx context.Context, p *Progress) (any, error) {
		return "should not run", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, m, j.ID(), 5*time.Second)
	if s.State != StateExpired || !errors.Is(s.Err, context.DeadlineExceeded) || !s.Started.IsZero() {
		t.Fatalf("snapshot = %+v, want expired without starting", s)
	}
	if st := m.Stats(); st.Expired != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 1 expired and none queued", st)
	}
	if _, err := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("submit after the queued job expired: %v", err)
	}
}

func TestListAndFilter(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	gate := make(chan struct{})
	started := make(chan struct{})
	m.Submit(SubmitOptions{Session: "a", Kind: "k1"}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started
	m.Submit(SubmitOptions{Session: "b", Kind: "k2"}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil })

	all := m.List("", 0, false)
	if len(all) != 2 {
		t.Fatalf("list all = %d, want 2", len(all))
	}
	onlyB := m.List("b", 0, false)
	if len(onlyB) != 1 || onlyB[0].Session != "b" {
		t.Fatalf("list b = %+v", onlyB)
	}
	queued := m.List("", StateQueued, true)
	if len(queued) != 1 || queued[0].Session != "b" {
		t.Fatalf("list queued = %+v", queued)
	}
	close(gate)
}

func TestDrainCancelsQueuedAndWaitsForRunning(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan struct{})
	finished := make(chan struct{})
	running, _ := m.Submit(SubmitOptions{Kind: "running"}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		time.Sleep(50 * time.Millisecond)
		close(finished)
		return "ok", nil
	})
	<-started
	queued, _ := m.Submit(SubmitOptions{Kind: "queued"}, func(ctx context.Context, p *Progress) (any, error) {
		return nil, nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case <-finished:
	default:
		t.Error("drain returned before the running job finished")
	}
	if s, _ := m.Get(running.ID()); s.State != StateDone {
		t.Errorf("running job state = %s, want done", s.State)
	}
	if s, _ := m.Get(queued.ID()); s.State != StateCancelled {
		t.Errorf("queued job state = %s, want cancelled", s.State)
	}
	// Post-drain submissions are rejected.
	if _, err := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
}

func TestDrainTimeoutCancelsRunning(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan struct{})
	j, _ := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-ctx.Done() // only stops when drained forcibly
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := m.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("forced drain took %s", elapsed)
	}
	if s, _ := m.Get(j.ID()); s.State != StateCancelled {
		t.Errorf("state = %s, want cancelled after forced drain", s.State)
	}
}

func TestRetentionEvictsOldTerminalJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1, Retention: 3})
	defer m.Drain(context.Background())
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
		waitTerminal(t, m, j.ID(), 5*time.Second)
	}
	for i, id := range ids {
		_, ok := m.Get(id)
		if want := i >= 3; ok != want {
			t.Errorf("job %s (index %d) retained = %v, want %v", id, i, ok, want)
		}
	}
}

func TestWaitQuantiles(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	for i := 0; i < 5; i++ {
		j, _ := m.Submit(SubmitOptions{}, func(ctx context.Context, p *Progress) (any, error) {
			time.Sleep(time.Millisecond)
			return nil, nil
		})
		waitTerminal(t, m, j.ID(), 5*time.Second)
	}
	st := m.Stats()
	if st.P50WaitMs < 0 || st.P95WaitMs < st.P50WaitMs {
		t.Errorf("wait quantiles inconsistent: %+v", st)
	}
	if st.Completed != 5 {
		t.Errorf("completed = %d, want 5", st.Completed)
	}
}

func TestCancelSession(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain(context.Background())
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	m.Submit(SubmitOptions{Session: "x"}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	q, _ := m.Submit(SubmitOptions{Session: "x"}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil })
	other, _ := m.Submit(SubmitOptions{Session: "y"}, func(ctx context.Context, p *Progress) (any, error) { return nil, nil })
	if n := m.CancelSession("x"); n != 2 {
		t.Fatalf("cancelled %d jobs, want 2", n)
	}
	if s, _ := m.Get(q.ID()); s.State != StateCancelled {
		t.Errorf("queued x job state = %s, want cancelled", s.State)
	}
	s := waitTerminal(t, m, other.ID(), 5*time.Second)
	if s.State != StateDone {
		t.Errorf("session y job state = %s, want done", s.State)
	}
}

func TestJobIDsAreUniqueAndStatsConsistent(t *testing.T) {
	m := NewManager(Config{Workers: 4})
	defer m.Drain(context.Background())
	const n = 50
	seen := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := m.Submit(SubmitOptions{Session: fmt.Sprintf("s%d", i%3)}, func(ctx context.Context, p *Progress) (any, error) {
				return i, nil
			})
			if err != nil {
				return // queue-full rejections are fine under load
			}
			mu.Lock()
			if seen[j.ID()] {
				t.Errorf("duplicate job id %s", j.ID())
			}
			seen[j.ID()] = true
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for id := range seen {
		waitTerminal(t, m, id, 5*time.Second)
	}
	st := m.Stats()
	if int(st.Completed+st.Rejected) != n {
		t.Errorf("completed(%d) + rejected(%d) != %d", st.Completed, st.Rejected, n)
	}
}

// TestStatsQueuedMatchesList holds Stats().Queued, the heap's length, to the
// jobs List reports queued while queued jobs leave by expiry, by cancel, by
// session deletion and by drain, with the one worker held busy throughout.
func TestStatsQueuedMatchesList(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 64, Retention: 256})
	gate := make(chan struct{})
	started := make(chan struct{})
	m.Submit(SubmitOptions{Session: "a"}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	})
	<-started
	check := func(step string, want int) {
		t.Helper()
		queued := len(m.List("", StateQueued, true))
		if got := m.Stats().Queued; got != want || queued != want {
			t.Fatalf("%s: Stats().Queued %d, List queued %d, want %d", step, got, queued, want)
		}
	}
	noop := func(ctx context.Context, p *Progress) (any, error) { return nil, nil }
	var ids, expiring []string
	for i := range 12 {
		opts := SubmitOptions{Session: fmt.Sprint("s", i%3), Priority: i % 4}
		if i%4 == 0 {
			opts.Deadline = time.Now().Add(5 * time.Millisecond)
		}
		j, err := m.Submit(opts, noop)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			expiring = append(expiring, j.ID())
		} else {
			ids = append(ids, j.ID())
		}
	}
	for _, id := range expiring {
		waitTerminal(t, m, id, 5*time.Second)
	}
	check("after expiry", 9)
	m.Cancel(ids[0])
	m.Cancel(ids[0])
	m.Cancel(ids[len(ids)-1])
	check("after cancels", 7)
	m.CancelSession("s1")
	check("after deleting a session", 5)
	for range 3 {
		if _, err := m.Submit(SubmitOptions{Session: "s2"}, noop); err != nil {
			t.Fatal(err)
		}
	}
	check("after more submissions", 8)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	m.Drain(ctx)
	check("after drain", 0)
}
