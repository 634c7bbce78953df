package histcheck

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2022, 6, 12, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

// digestOf is the synthetic oracle: version v holds 400 creation rows plus
// ten per append, and a correct read renders exactly that prefix.
func digestOf(rows int) string { return fmt.Sprintf("rows=%d", rows) }

func rowsAt(version int64) int { return 400 + 10*int(version-1) }

func oracle(_, _ string, version int64) (string, error) { return digestOf(rowsAt(version)), nil }

func appendRec(proc string, version int64, start, end int) Record {
	return Record{Proc: proc, Session: "s", Op: Append, Version: version, Payload: "ten rows", Start: at(start), End: at(end)}
}

func readRec(proc string, pin, version int64, placement string, start, end int) Record {
	return Record{Proc: proc, Session: "s", Op: Read, Query: "q", Pin: pin, Version: version,
		Placement: placement, Digest: digestOf(rowsAt(version)), Start: at(start), End: at(end)}
}

// base is a small legal history: two appenders publish versions 2..4 (the
// publish of 4 is slow: 300..400 ms) while two readers pin every version at
// both placements and read the head.
func base() []Record {
	return []Record{
		readRec("r1", 0, 1, "local", 10, 20),
		appendRec("a1", 2, 100, 110),
		readRec("r1", 2, 2, "local", 120, 130),
		readRec("r2", 2, 2, "workers", 125, 135),
		appendRec("a2", 3, 200, 210),
		readRec("r1", 0, 3, "workers", 220, 230),
		readRec("r2", 3, 3, "local", 225, 235),
		appendRec("a1", 4, 300, 400),
		readRec("r1", 0, 4, "local", 310, 320), // began during the publish of 4: may see it
		readRec("r2", 0, 3, "local", 330, 340), // so did this one, and may not
		readRec("r2", 1, 1, "workers", 350, 360),
		readRec("r1", 4, 4, "workers", 410, 420),
		readRec("r2", 0, 4, "local", 430, 440),
	}
}

// TestCheckRules doctors the legal history once per rule and requires exactly
// that rule's violation, by name — the checker can fail, and fails for the
// reason given.
func TestCheckRules(t *testing.T) {
	if v := Check(base(), oracle); len(v) != 0 {
		t.Fatalf("the legal history has violations: %v", v)
	}
	cases := []struct {
		rule   string
		doctor func(h []Record) []Record
	}{
		{"version_gap", func(h []Record) []Record {
			// Version 4 is published, and read, as 5: the chain is 2, 3, 5.
			for i := range h {
				if h[i].Version == 4 {
					h[i].Version = 5
					h[i].Digest = digestOf(rowsAt(5))
					if h[i].Pin == 4 {
						h[i].Pin = 5
					}
				}
			}
			return h
		}},
		{"version_reorder", func(h []Record) []Record {
			// The append of version 3 ended before the append of version 2 began.
			h[4].Start, h[4].End = at(50), at(60)
			return h
		}},
		{"read_unpublished", func(h []Record) []Record {
			return append(h, readRec("r1", 9, 9, "local", 500, 510))
		}},
		{"read_before_publish", func(h []Record) []Record {
			// A pinned read of version 3 returned before its publish began.
			return append(h, readRec("r2", 3, 3, "local", 150, 160))
		}},
		{"pin_ignored", func(h []Record) []Record {
			// Pinned to 2, answered (correctly rendered) version 3.
			return append(h, readRec("r1", 2, 3, "local", 500, 510))
		}},
		{"head_regressed", func(h []Record) []Record {
			// r1 saw head 4 at 310..320, then head 3 — while the publish of 4 was
			// still in flight, so real time alone does not forbid the 3.
			return append(h, readRec("r1", 0, 3, "local", 360, 370))
		}},
		{"stale_head", func(h []Record) []Record {
			// A new client reads head 3 after the publish of 4 has ended.
			return append(h, readRec("r3", 0, 3, "local", 500, 510))
		}},
		{"digest_mismatch", func(h []Record) []Record {
			// Every read of version 3 renders a prefix one row short, and they
			// all agree. This is the history the replay oracle passed: comparing
			// each read with the answer the same server gave when it published
			// the version finds nothing, and neither does Check without the
			// fresh-session oracle (asserted below).
			for i := range h {
				if h[i].Op == Read && h[i].Version == 3 {
					h[i].Digest = digestOf(rowsAt(3) - 1)
				}
			}
			if v := Check(h, nil); len(v) != 0 {
				t.Errorf("a self-consistent history fails without an oracle: %v", v)
			}
			return h
		}},
		{"digest_diverged", func(h []Record) []Record {
			// A workers-placed, degraded read of version 2 differs from the local one.
			r := readRec("r2", 2, 2, "workers", 500, 510)
			r.Degraded, r.Digest = true, digestOf(rowsAt(2)+1)
			return append(h, r)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			got := Check(tc.doctor(base()), oracle)
			if len(got) != 1 || got[0].Rule != tc.rule {
				t.Errorf("violations %v, want exactly one %s", got, tc.rule)
			}
		})
	}
}

// TestCheckCleanHistoryFast: 200 versions and 2,000 reads from three
// sequential clients, legal by construction, pass in under 100 ms.
func TestCheckCleanHistoryFast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h []Record
	for v := int64(2); v <= 201; v++ { // publish of v: [10v, 10v+4) ms
		h = append(h, appendRec(fmt.Sprintf("a%d", v%2), v, 10*int(v), 10*int(v)+4))
	}
	for i := 0; i < 2000; i++ {
		start := 25 + i // ms; reader i%3 is sequential: its reads are 3 ms apart, 2 ms long
		head := int64(start/10) - 1
		if start%10 >= 4 { // the publish of start/10 has ended
			head++
		}
		if head > 201 {
			head = 201
		}
		pin := int64(0)
		version := head
		if rng.Intn(4) != 0 {
			pin = 1 + rng.Int63n(head)
			version = pin
		}
		h = append(h, readRec(fmt.Sprintf("r%d", i%3), pin, version, []string{"local", "workers"}[rng.Intn(2)], start, start+2))
	}
	rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
	best := time.Hour // of three, so a neighbour's burst on a shared machine is not a failure
	for i := 0; i < 3; i++ {
		start := time.Now()
		if v := Check(h, oracle); len(v) != 0 {
			t.Fatalf("clean history: %d violations, first %v", len(v), v[0])
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best > 100*time.Millisecond {
		t.Errorf("Check took %v on 200 versions and 2,000 reads, want < 100ms", best)
	}
}

// TestDumpFile: one JSON line per record, under os.TempDir().
func TestDumpFile(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var l Log
	for _, r := range base() {
		l.Add(r)
	}
	path, err := l.DumpFile("dump")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var first Record
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(base()) || first.Proc != "r1" || first.Digest != digestOf(400) || !first.End.Equal(at(20)) {
		t.Fatalf("%d lines, first record %+v", len(lines), first)
	}
}
