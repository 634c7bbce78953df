// Package histcheck checks a recorded history of appends and reads against
// the append-only snapshot-isolation specification, independently of the
// implementation that produced it (the method of "Efficient Black-box
// Checking of Snapshot Isolation in Databases", arXiv 2301.07313; an
// append-only history reduces its dependency graph to one chain per
// session). Check reads nothing but what clients recorded — data, location,
// time — and an oracle the caller computes from the history's own payloads.
// DESIGN.md, "MVCC sessions & snapshot identity", states the specification
// rule by rule with the violation that names each.
package histcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Op is the kind of a recorded operation.
type Op string

const Append, Read Op = "append", "read"

// Record is one operation as its client saw it. Start is taken before the
// request is sent and End after the response arrived, on one clock.
type Record struct {
	Proc      string    `json:"proc"` // the client; one client issues one operation at a time
	Session   string    `json:"session"`
	Op        Op        `json:"op"`
	Query     string    `json:"query,omitempty"`     // read: a label the oracle understands
	Pin       int64     `json:"pin,omitempty"`       // read: requested version, 0 = head
	Version   int64     `json:"version"`             // append: published; read: observed
	Placement string    `json:"placement,omitempty"` // read: where it ran
	Degraded  bool      `json:"degraded,omitempty"`  // read: ran on less than the full fleet
	Payload   string    `json:"payload,omitempty"`   // append: the CSV body sent
	Digest    string    `json:"digest,omitempty"`    // read: placement-independent rendering of the answer
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
}

// Log collects records from concurrent clients.
type Log struct {
	mu   sync.Mutex
	recs []Record
}

// Add appends one record.
func (l *Log) Add(r Record) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// Records returns a copy of the history in the order it was recorded.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.recs...)
}

// DumpFile writes the history as JSON lines to
// <os.TempDir()>/hyper-histcheck-<name>.jsonl and returns the path, so a
// failed run leaves its evidence where CI can pick it up.
func (l *Log) DumpFile(name string) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range l.Records() {
		if err := enc.Encode(r); err != nil {
			return "", err
		}
	}
	path := filepath.Join(os.TempDir(), "hyper-histcheck-"+name+".jsonl")
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// Violation is one broken rule of the specification.
type Violation struct {
	Rule, Session string
	Version       int64
	Detail        string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: session %q version %d: %s", v.Rule, v.Session, v.Version, v.Detail)
}

// Oracle returns the digest a correct implementation gives query at version
// of session. It must not be derived from the answers under test.
type Oracle func(session, query string, version int64) (string, error)

// Check returns every violation of the specification in recs, sessions in
// name order. A nil oracle skips digest_mismatch.
func Check(recs []Record, oracle Oracle) []Violation {
	recs = append([]Record(nil), recs...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Session < recs[j].Session })
	var out []Violation
	for lo, hi := 0, 0; lo < len(recs); lo = hi {
		for hi = lo; hi < len(recs) && recs[hi].Session == recs[lo].Session; hi++ {
		}
		out = append(out, checkSession(recs[lo:hi], oracle)...)
	}
	return out
}

// checkSession checks the records of one session.
func checkSession(recs []Record, oracle Oracle) []Violation {
	session := recs[0].Session
	var out []Violation
	fail := func(rule string, version int64, format string, args ...any) {
		out = append(out, Violation{Rule: rule, Session: session, Version: version, Detail: fmt.Sprintf(format, args...)})
	}
	var appends, reads []Record
	for _, r := range recs {
		if r.Op == Append {
			appends = append(appends, r)
		} else {
			reads = append(reads, r)
		}
	}

	// The chain, in version order: contiguous from 2, and never contradicted
	// by real time (latest is the append so far that began last).
	sort.SliceStable(appends, func(i, j int) bool { return appends[i].Version < appends[j].Version })
	publish := map[int64]Record{}
	prev := int64(1)
	var latest Record
	for _, a := range appends {
		if a.Version != prev+1 {
			fail("version_gap", a.Version, "published after version %d", prev)
		}
		prev = a.Version
		if a.End.Before(latest.Start) {
			fail("version_reorder", a.Version, "its append by %s ended before the append of version %d by %s began", a.Proc, latest.Version, latest.Proc)
		}
		if a.Start.After(latest.Start) {
			latest = a
		}
		publish[a.Version] = a
	}

	type key struct {
		query   string
		version int64
	}
	first := map[key]Record{}
	var observed []key
	diverged := map[key]bool{}
	lastHead := map[string]Record{}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].Start.Before(reads[j].Start) })
	for _, r := range reads {
		if r.Pin != 0 && r.Version != r.Pin {
			fail("pin_ignored", r.Version, "%s pinned version %d", r.Proc, r.Pin)
		}
		if p, ok := publish[r.Version]; !ok && r.Version != 1 {
			fail("read_unpublished", r.Version, "%s read a version no append published", r.Proc)
			continue
		} else if ok && r.End.Before(p.Start) {
			fail("read_before_publish", r.Version, "%s had its answer %s before the publish began", r.Proc, p.Start.Sub(r.End))
		}
		if r.Pin == 0 {
			if p, ok := lastHead[r.Proc]; ok && r.Version < p.Version {
				fail("head_regressed", r.Version, "%s had already observed head %d", r.Proc, p.Version)
			}
			lastHead[r.Proc] = r
			for i := len(appends) - 1; i >= 0 && appends[i].Version > r.Version; i-- {
				if appends[i].End.Before(r.Start) {
					fail("stale_head", r.Version, "%s began its head read after the publish of version %d had ended", r.Proc, appends[i].Version)
					break
				}
			}
		}
		k := key{r.Query, r.Version}
		f, seen := first[k]
		if !seen {
			first[k] = r
			observed = append(observed, k)
		} else if r.Digest != f.Digest && !diverged[k] {
			diverged[k] = true
			fail("digest_diverged", r.Version, "query %q: %s (placement %q, degraded %v) read %s, %s (placement %q, degraded %v) read %s",
				r.Query, f.Proc, f.Placement, f.Degraded, f.Digest, r.Proc, r.Placement, r.Degraded, r.Digest)
		}
	}
	if oracle == nil {
		return out
	}
	for _, k := range observed {
		want, err := oracle(session, k.query, k.version)
		if err != nil {
			fail("digest_mismatch", k.version, "query %q: oracle: %v", k.query, err)
		} else if got := first[k].Digest; got != want {
			fail("digest_mismatch", k.version, "query %q: read %s, the specification gives %s", k.query, got, want)
		}
	}
	return out
}
