package lru

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

var bg = context.Background()

// put fills key through Do, the only fill path.
func put(t *testing.T, c *Cache[int], key string, v int) {
	t.Helper()
	if _, hit, err := c.Do(bg, key, func() (int, error) { return v, nil }); hit || err != nil {
		t.Fatalf("Do(%q) = hit %v, err %v; want a clean build", key, hit, err)
	}
}

func TestLRUOrderAndEviction(t *testing.T) {
	var evicted []string
	c := New(3, func(k string, v int) { evicted = append(evicted, fmt.Sprintf("%s=%d", k, v)) })
	for i := 0; i < 3; i++ {
		put(t, c, fmt.Sprintf("k%d", i), i)
	}
	// Touch k0 so k1 becomes the LRU entry.
	if v, ok := c.Get("k0"); !ok || v != 0 {
		t.Fatalf("Get(k0) = %v,%v before eviction", v, ok)
	}
	if got, want := c.Keys(), []string{"k1", "k2", "k0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v (LRU first)", got, want)
	}
	put(t, c, "k3", 3)
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	if want := []string{"k1=1"}; !reflect.DeepEqual(evicted, want) {
		t.Errorf("onEvict saw %v, want %v", evicted, want)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 || st.MaxEntries != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 3/3 entries", st)
	}
}

// TestRebuildRefreshes: a key rebuilt after its eviction carries the new
// value and re-enters as most recently used.
func TestRebuildRefreshes(t *testing.T) {
	c := New[int](2, nil)
	put(t, c, "a", 1)
	put(t, c, "b", 2)
	put(t, c, "c", 3) // evicts a
	put(t, c, "a", 10)
	if got, want := c.Keys(), []string{"c", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if v, hit, _ := c.Do(bg, "a", func() (int, error) { return -1, nil }); !hit || v != 10 {
		t.Errorf("Do(a) = %v, hit %v; want the rebuilt 10 served from cache", v, hit)
	}
}

func TestBoundNeverExceeded(t *testing.T) {
	evictions := 0
	c := New(8, func(string, int) { evictions++ })
	for i := 0; i < 100; i++ {
		put(t, c, fmt.Sprintf("k%d", i), i)
		if c.Len() > 8 {
			t.Fatalf("after insert %d: Len = %d exceeds bound 8", i, c.Len())
		}
	}
	if st := c.Stats(); st.Evictions != 92 || evictions != 92 {
		t.Errorf("Evictions = %d (hook %d), want 92", st.Evictions, evictions)
	}
	for i := 92; i < 100; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d should be resident", i)
		}
	}
}

func TestUnboundedAtNonPositiveMax(t *testing.T) {
	for _, max := range []int{0, -5} {
		c := New[int](max, nil)
		for i := 0; i < 1000; i++ {
			put(t, c, fmt.Sprintf("k%d", i), i)
		}
		if st := c.Stats(); st.Entries != 1000 || st.Evictions != 0 || st.MaxEntries != 0 {
			t.Errorf("max %d: stats = %+v, want 1000 entries, no evictions, MaxEntries 0", max, st)
		}
	}
}

func TestHitMissCounters(t *testing.T) {
	c := New[int](0, nil)
	c.Get("absent")
	put(t, c, "k", 1)
	c.Get("k")
	if _, hit, _ := c.Do(bg, "k", nil); !hit {
		t.Error("Do on a resident key should hit without building")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}
	if got := st.HitRate(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("HitRate = %v, want 1/2", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

// herd runs n goroutines through Do on one cold key and returns their
// results in goroutine order; a panic out of Do is returned as that
// goroutine's error. build receives the attempt number (1 = first build) and
// starts only once every goroutine is about to call Do, so a cache that let
// two of them build at once would be seen doing so.
func herd(c *Cache[int], n int, build func(attempt int32) (int, error)) (vals []int, hits []bool, errs []error) {
	vals, hits, errs = make([]int, n), make([]bool, n), make([]error, n)
	var attempts atomic.Int32
	var arrived, wg sync.WaitGroup
	arrived.Add(n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[g] = fmt.Errorf("panic: %v", r)
				}
			}()
			arrived.Done()
			vals[g], hits[g], errs[g] = c.Do(bg, "cold", func() (int, error) {
				arrived.Wait()
				return build(attempts.Add(1))
			})
		}()
	}
	wg.Wait()
	return vals, hits, errs
}

func TestSingleFlightColdKey(t *testing.T) {
	c := New[int](0, nil)
	var builds atomic.Int32
	vals, hits, errs := herd(c, 8, func(int32) (int, error) {
		builds.Add(1)
		return 42, nil
	})
	nHit := 0
	for g := range vals {
		if errs[g] != nil || vals[g] != 42 {
			t.Errorf("goroutine %d: %v, %v", g, vals[g], errs[g])
		}
		if hits[g] {
			nHit++
		}
	}
	if st := c.Stats(); builds.Load() != 1 || st.Misses != 1 || st.Hits != 7 || nHit != 7 {
		t.Errorf("builds %d, stats %+v, hit results %d; want 1 build / 1 miss / 7 hits", builds.Load(), st, nHit)
	}
}

// TestFailedBuildNotCached: the first build fails, so its error reaches only
// its own caller; exactly one waiter rebuilds and everyone else is served.
func TestFailedBuildNotCached(t *testing.T) {
	c := New[int](0, nil)
	boom := errors.New("boom")
	vals, _, errs := herd(c, 8, func(attempt int32) (int, error) {
		if attempt == 1 {
			return 0, boom
		}
		return int(attempt), nil
	})
	failed := 0
	for g := range vals {
		switch {
		case errors.Is(errs[g], boom):
			failed++
		case errs[g] != nil || vals[g] != 2:
			t.Errorf("goroutine %d: %v, %v; want the second build's 2", g, vals[g], errs[g])
		}
	}
	if st := c.Stats(); failed != 1 || st.Misses != 2 || st.Hits != 6 || st.Entries != 1 {
		t.Errorf("failed %d, stats %+v; want 1 failure, 2 misses (one rebuild), 6 hits", failed, st)
	}
}

// TestPanickingBuildReleasesWaiters: the panic unwinds through its own
// caller only; herd returning at all shows the waiters were released.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	c := New[int](0, nil)
	vals, _, errs := herd(c, 8, func(attempt int32) (int, error) {
		if attempt == 1 {
			panic("poisoned build")
		}
		return int(attempt), nil
	})
	panicked := 0
	for g := range vals {
		switch {
		case errs[g] != nil:
			panicked++
		case vals[g] != 2:
			t.Errorf("goroutine %d got %d, want the second build's 2", g, vals[g])
		}
	}
	if st := c.Stats(); panicked != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("panicked %d, stats %+v; want 1 panic, 2 misses (one rebuild), 1 entry", panicked, st)
	}
}

// TestCancelledWaiterReturnsBuilderFinishes: a waiter gives up with its own
// ctx error; the build is not disturbed and its value is cached.
func TestCancelledWaiterReturnsBuilderFinishes(t *testing.T) {
	c := New[int](0, nil)
	building, release := make(chan struct{}), make(chan struct{})
	builder := make(chan int)
	go func() {
		v, _, _ := c.Do(bg, "k", func() (int, error) {
			close(building)
			<-release
			return 9, nil
		})
		builder <- v
	}()
	<-building
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, hit, err := c.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) || hit {
		t.Errorf("cancelled waiter: hit %v, err %v; want context.Canceled", hit, err)
	}
	close(release)
	if v := <-builder; v != 9 {
		t.Errorf("builder returned %d, want 9", v)
	}
	if v, ok := c.Get("k"); !ok || v != 9 {
		t.Errorf("Get(k) = %v,%v after the build; want 9 cached", v, ok)
	}
}

// TestForget: a forgotten value is rebuilt by the next Do — one more miss,
// nothing counted or reported as evicted — and forgetting an absent key does
// nothing.
func TestForget(t *testing.T) {
	evicted := 0
	c := New(2, func(string, int) { evicted++ })
	put(t, c, "a", 1)
	put(t, c, "b", 2)
	c.Forget("absent")
	c.Forget("a")
	if got, want := c.Keys(), []string{"b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v after Forget(a), want %v", got, want)
	}
	put(t, c, "a", 10) // fails unless Do rebuilds
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %v,%v; want the rebuilt 10", v, ok)
	}
	if st := c.Stats(); st.Misses != 3 || st.Evictions != 0 || st.Entries != 2 || evicted != 0 {
		t.Errorf("stats = %+v, onEvict calls %d; want 3 misses (one rebuild), no evictions, 2 entries", st, evicted)
	}
}

// TestForgetDuringBuild: Forget drops cached values only, so one that
// arrives while the key is being built leaves the built value cached.
func TestForgetDuringBuild(t *testing.T) {
	c := New[int](0, nil)
	building, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Do(bg, "k", func() (int, error) {
			close(building)
			<-release
			return 9, nil
		})
	}()
	<-building
	c.Forget("k")
	close(release)
	<-done
	if v, ok := c.Get("k"); !ok || v != 9 {
		t.Errorf("Get(k) = %v,%v after a Forget during its build; want 9 cached", v, ok)
	}
}
