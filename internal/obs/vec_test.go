package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestVecConcurrentWith races With over label tuples that exist and ones
// that do not yet: every goroutine must get the same series for a tuple,
// each tuple must expose one series, and the counts must sum exactly.
func TestVecConcurrentWith(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("hyper_test_races_total", "Racing increments.", "worker", "reason")
	vec.With("w0", "warm").Inc()
	const goroutines, rounds, tuples = 8, 300, 12
	got := make([][]*Counter, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]*Counter, tuples)
			for i := range rounds {
				k := (i*7 + g) % tuples
				c := vec.With(fmt.Sprint("w", k%3), fmt.Sprint("r", k/3))
				if got[g][k] == nil {
					got[g][k] = c
				} else if got[g][k] != c {
					t.Errorf("goroutine %d: tuple %d changed series", g, k)
					return
				}
				c.Inc()
				vec.With("w0", "warm").Inc()
			}
		}()
	}
	wg.Wait()
	want := map[string]uint64{"w0/warm": 1 + goroutines*rounds}
	for g := range goroutines {
		for i := range rounds {
			k := (i*7 + g) % tuples
			want[fmt.Sprintf("w%d/r%d", k%3, k/3)]++
		}
		for k, c := range got[g] {
			if c != got[0][k] {
				t.Fatalf("tuple %d: goroutines 0 and %d got different series", k, g)
			}
		}
	}
	series := 0
	vec.Each(func(values []string, c *Counter) {
		series++
		key := strings.Join(values, "/")
		if c.Value() != want[key] {
			t.Errorf("%s = %d, want %d", key, c.Value(), want[key])
		}
	})
	if series != len(want) {
		t.Fatalf("%d series, want %d", series, len(want))
	}
}

// TestVecWithAllocatesNothing holds the per-request path: With on an
// existing one-label series, as every HTTP request calls it, allocates
// nothing.
func TestVecWithAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("hyper_test_requests_total", "Requests.", "endpoint")
	lat := r.HistogramVec("hyper_test_request_ms", "Latency.", nil, "endpoint")
	reqs.With("whatif")
	lat.With("whatif")
	if n := testing.AllocsPerRun(100, func() {
		reqs.With("whatif").Inc()
		lat.With("whatif").Observe(1)
	}); n != 0 {
		t.Fatalf("With on existing series: %v allocations per call pair, want 0", n)
	}
}
