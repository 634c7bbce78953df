package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hyper/internal/dist"
)

// TestWorkerHealthIsJSON: a worker's /healthz is JSON whatever its id holds.
// A control byte or invalid UTF-8 in the id must come out as JSON escapes
// (Go's %q would write \x01 and \xff, which JSON has not).
func TestWorkerHealthIsJSON(t *testing.T) {
	const id = "w\x01\"\xff"
	w := dist.NewWorker(dist.WorkerConfig{})
	rec := httptest.NewRecorder()
	workerHealth(id, w).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("/healthz body is not JSON: %q", rec.Body)
	}
	var got workerHealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	// encoding/json writes invalid UTF-8 as U+FFFD.
	if want := (workerHealthResponse{OK: true, Worker: "w\x01\"�", Frames: 0}); got != want {
		t.Fatalf("/healthz = %+v, want %+v", got, want)
	}
}
