package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPanicRecovery: a panicking handler must answer a JSON 500 (code
// "panic"), bump hyper_server_panics_total, log the stack, and leave the
// server able to serve the next request.
func TestPanicRecovery(t *testing.T) {
	var logs []string
	s := New(Config{Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	h := s.instrument("whatif", func(r *http.Request) (any, error) {
		panic("boom")
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/g/whatif", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response is not JSON: %q", rec.Body.String())
	}
	if body["code"] != "panic" || body["error"] != "internal server error" {
		t.Fatalf("panic body = %v", body)
	}
	if got := s.panics.Value(); got != 1 {
		t.Fatalf("hyper_server_panics_total = %d, want 1", got)
	}
	stackLogged := false
	for _, l := range logs {
		if strings.Contains(l, "panic in /v1/whatif handler") {
			stackLogged = true
		}
	}
	if !stackLogged {
		t.Fatalf("panic stack was not logged: %q", logs)
	}

	// The server keeps serving after a recovered panic.
	ok := s.instrument("whatif", func(r *http.Request) (any, error) {
		return map[string]int{"fine": 1}, nil
	})
	rec = httptest.NewRecorder()
	ok.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/g/whatif", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic request: status %d, want 200", rec.Code)
	}
}

// TestPanicRecoveryPassesAbortHandler: http.ErrAbortHandler is the net/http
// sentinel for deliberately severed connections and must keep propagating.
func TestPanicRecoveryPassesAbortHandler(t *testing.T) {
	s := New(Config{})
	h := s.instrument("stats", func(r *http.Request) (any, error) {
		panic(http.ErrAbortHandler)
	})
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", p)
		}
		if got := s.panics.Value(); got != 0 {
			t.Fatalf("abort sentinel counted as a panic: %d", got)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/stats", nil))
}
