package server

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestPaginationStableWalk pages through sessions, jobs, and usage with
// limit/after cursors and asserts each walk visits every item exactly once
// in the listing's stable key order — appends/filters in between cannot
// shuffle or duplicate pages.
func TestPaginationStableWalk(t *testing.T) {
	ts := newTestServer(t, Config{})
	names := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for _, n := range names {
		createSession(t, ts, n)
	}

	// Sessions paginate by name.
	var walked []string
	after := ""
	for {
		url := ts.URL + "/v1/sessions?limit=2"
		if after != "" {
			url += "&after=" + after
		}
		var page SessionListResponse
		if code := do(t, "GET", url, nil, &page); code != http.StatusOK {
			t.Fatalf("sessions page: status %d", code)
		}
		if len(page.Sessions) > 2 {
			t.Fatalf("page holds %d sessions, limit was 2", len(page.Sessions))
		}
		for _, s := range page.Sessions {
			walked = append(walked, s.Name)
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	if len(walked) != len(want) {
		t.Fatalf("walked %v, want %v", walked, want)
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("walked %v, want %v", walked, want)
		}
	}

	// Jobs paginate by numeric id order. One job per session: five at once
	// on one session would race the default per-session limit of four.
	var ids []string
	for i := 0; i < 5; i++ {
		var job JobInfo
		if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
			Session: names[i], Kind: "whatif", Query: germanCount,
		}, &job); code != http.StatusOK {
			t.Fatalf("submit job %d: status %d", i, code)
		}
		ids = append(ids, job.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var list JobListResponse
		do(t, "GET", ts.URL+"/v1/jobs?state=done", nil, &list)
		if len(list.Jobs) == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not finish: %d/%d done", len(list.Jobs), len(ids))
		}
		time.Sleep(5 * time.Millisecond)
	}
	var jobWalk []string
	after = ""
	for {
		url := ts.URL + "/v1/jobs?limit=2"
		if after != "" {
			url += "&after=" + after
		}
		var page JobListResponse
		if code := do(t, "GET", url, nil, &page); code != http.StatusOK {
			t.Fatalf("jobs page: status %d", code)
		}
		for _, j := range page.Jobs {
			jobWalk = append(jobWalk, j.ID)
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if len(jobWalk) != len(ids) {
		t.Fatalf("job walk %v, want %d jobs", jobWalk, len(ids))
	}
	for i := 1; i < len(jobWalk); i++ {
		prev, _ := jobSeq(jobWalk[i-1])
		cur, _ := jobSeq(jobWalk[i])
		if prev >= cur {
			t.Fatalf("job walk not in id order: %v", jobWalk)
		}
	}

	// Usage paginates by opaque composite-key cursors; the walk must cover
	// exactly the shapes the unpaginated listing holds.
	var all UsageResponse
	do(t, "GET", ts.URL+"/v1/usage", nil, &all)
	if len(all.Shapes) == 0 {
		t.Fatal("no usage shapes recorded")
	}
	seen := map[string]bool{}
	after = ""
	for {
		url := ts.URL + "/v1/usage?limit=1"
		if after != "" {
			url += "&after=" + after
		}
		var page UsageResponse
		if code := do(t, "GET", url, nil, &page); code != http.StatusOK {
			t.Fatalf("usage page: status %d", code)
		}
		for _, u := range page.Shapes {
			key := usageKey(u)
			if seen[key] {
				t.Fatalf("usage walk visited %q twice", key)
			}
			seen[key] = true
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if len(seen) != len(all.Shapes) {
		t.Fatalf("usage walk covered %d shapes, unpaginated listing has %d", len(seen), len(all.Shapes))
	}
}

// TestPaginateJobSeqOrder walks job ids past j9 through paginate keyed by
// sequence number, as GET /v1/jobs does: j10 follows j9 (as a string it
// would sort before j2), and the walk ends on the zero key.
func TestPaginateJobSeqOrder(t *testing.T) {
	var ids []string
	for i := 1; i <= 12; i++ {
		ids = append(ids, fmt.Sprintf("j%d", i))
	}
	seq := func(id string) int64 { n, _ := jobSeq(id); return n }
	var walk []string
	p, after := pageParams{limit: 5}, int64(0)
	for {
		page, last := paginate(ids, seq, after, p)
		walk = append(walk, page...)
		if last == 0 {
			break
		}
		p.after, after = fmt.Sprintf("j%d", last), last
	}
	if !slices.Equal(walk, ids) {
		t.Fatalf("walk %v, want %v", walk, ids)
	}
}
