package server

import (
	"context"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"hyper/internal/dist"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/exposition.golden from the current exposition")

// TestServerWorkerExpositionGolden pins the /metrics schema of both roles —
// every family's HELP and TYPE lines, in registration order, and its
// zero-traffic samples — for a fresh server.New and a fresh dist.NewWorker,
// byte for byte against testdata/exposition.golden. Only what a scrape reads
// from the clock or the Go runtime is masked: hyper_uptime_seconds, the
// hyper_go_* gauges and the go_version label. Rewrite the golden only for a
// deliberate schema change:
// go test -run TestServerWorkerExpositionGolden -update ./internal/server.
func TestServerWorkerExpositionGolden(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(func() { srv.Drain(context.Background()) })
	var b strings.Builder
	b.WriteString("== server\n")
	srv.Metrics().WritePrometheus(&b)
	b.WriteString("== worker\n")
	dist.NewWorker(dist.WorkerConfig{}).Metrics().WritePrometheus(&b)

	got := regexp.MustCompile(`(?m)^(hyper_uptime_seconds|hyper_go_[a-z_]+) .*$`).ReplaceAllString(b.String(), "$1 <masked>")
	got = regexp.MustCompile(`go_version="[^"]*"`).ReplaceAllString(got, `go_version="<masked>"`)
	const path = "testdata/exposition.golden"
	if *updateExposition {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
