package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hyper/internal/httpapi"
)

// TestErrorStatusTable drives every /v1/* endpoint through its error paths
// and pins the status mapping: unknown session/job/dataset resources are
// 404 (or 400 where the name arrives in the body of a creation request),
// malformed HyperQL and malformed request bodies are 400 — never 500 — and
// every error body carries a non-empty "error" field.
func TestErrorStatusTable(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")

	const badQL = `USE German UPDATE(`
	cases := []struct {
		name   string
		method string
		path   string
		body   string // raw JSON; "" means no body
		want   int
	}{
		// Unknown resources -> 404.
		{"whatif unknown session", "POST", "/v1/sessions/nope/whatif", `{"query":"x"}`, 404},
		{"howto unknown session", "POST", "/v1/sessions/nope/howto", `{"query":"x"}`, 404},
		{"explain unknown session", "POST", "/v1/sessions/nope/explain", `{"query":"x"}`, 404},
		{"batch unknown session", "POST", "/v1/sessions/nope/batch", `{"queries":[{"query":"x"}]}`, 404},
		{"jobs unknown session", "POST", "/v1/jobs", `{"session":"nope","query":"x"}`, 404},
		{"delete unknown session", "DELETE", "/v1/sessions/nope", "", 404},
		{"get unknown job", "GET", "/v1/jobs/nope", "", 404},
		{"cancel unknown job", "DELETE", "/v1/jobs/nope", "", 404},

		// Malformed HyperQL -> 400.
		{"whatif bad query", "POST", "/v1/sessions/g/whatif", `{"query":"` + badQL + `"}`, 400},
		{"howto bad query", "POST", "/v1/sessions/g/howto", `{"query":"` + badQL + `"}`, 400},
		{"explain bad query", "POST", "/v1/sessions/g/explain", `{"query":"` + badQL + `"}`, 400},
		{"jobs bad query", "POST", "/v1/jobs", `{"session":"g","query":"` + badQL + `"}`, 400},
		{"jobs bad howto query", "POST", "/v1/jobs", `{"session":"g","kind":"howto","query":"` + badQL + `"}`, 400},
		// Kind/query mismatches are rejected at submission, not queued.
		{"jobs howto query as whatif", "POST", "/v1/jobs", `{"session":"g","kind":"whatif","query":"USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)"}`, 400},
		{"jobs whatif query as howto", "POST", "/v1/jobs", `{"session":"g","kind":"howto","query":"USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)"}`, 400},

		// Semantically invalid requests -> 400.
		{"howto bad method", "POST", "/v1/sessions/g/howto", `{"query":"x","method":"annealing"}`, 400},
		{"jobs bad method", "POST", "/v1/jobs", `{"session":"g","kind":"howto","query":"USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)","method":"annealing"}`, 400},
		{"jobs bad kind", "POST", "/v1/jobs", `{"session":"g","kind":"teleport","query":"x"}`, 400},
		{"jobs empty batch", "POST", "/v1/jobs", `{"session":"g","kind":"batch"}`, 400},
		{"jobs bad state filter", "GET", "/v1/jobs?state=bogus", "", 400},
		{"batch empty", "POST", "/v1/sessions/g/batch", `{"queries":[]}`, 400},
		{"session missing name", "POST", "/v1/sessions", `{"dataset":"german"}`, 400},
		{"session unknown dataset", "POST", "/v1/sessions", `{"name":"x","dataset":"nope"}`, 400},
		{"session no source", "POST", "/v1/sessions", `{"name":"x"}`, 400},
		{"session both sources", "POST", "/v1/sessions", `{"name":"x","dataset":"german","csv":{"tables":[]}}`, 400},
		{"session bad mode", "POST", "/v1/sessions", `{"name":"x","dataset":"german","options":{"mode":"psychic"}}`, 400},

		// Malformed JSON bodies -> 400 on every POST endpoint.
		{"whatif bad body", "POST", "/v1/sessions/g/whatif", `{"nope`, 400},
		{"howto bad body", "POST", "/v1/sessions/g/howto", `{"nope`, 400},
		{"explain bad body", "POST", "/v1/sessions/g/explain", `{"nope`, 400},
		{"batch bad body", "POST", "/v1/sessions/g/batch", `{"nope`, 400},
		{"jobs bad body", "POST", "/v1/jobs", `{"nope`, 400},
		{"sessions bad body", "POST", "/v1/sessions", `{"nope`, 400},
		{"sessions unknown field", "POST", "/v1/sessions", `{"surprise":1}`, 400},

		// Healthy GET endpoints stay 200 for contrast.
		{"datasets ok", "GET", "/v1/datasets", "", 200},
		{"sessions ok", "GET", "/v1/sessions", "", 200},
		{"jobs list ok", "GET", "/v1/jobs", "", 200},
		{"stats ok", "GET", "/v1/stats", "", 200},
		{"healthz ok", "GET", "/healthz", "", 200},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = bytes.NewReader([]byte(tc.body))
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.want, raw)
			}
			if tc.want >= 400 {
				var body httpapi.ErrorResponse
				if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
					t.Errorf("error body %q is not structured JSON with an error field", raw)
				}
				if body.Code == "" {
					t.Errorf("error body %q has no machine-readable code", raw)
				}
				if strings.Contains(string(raw), "goroutine") {
					t.Errorf("error body leaks internals: %q", raw)
				}
			}
		})
	}
}

// requireEncodingEnvelope checks the answer to a payload JSON cannot carry:
// the 500 envelope naming the encoding error, never a 200 with an empty body.
func requireEncodingEnvelope(t *testing.T, status int, contentType string, raw []byte) {
	t.Helper()
	var body httpapi.ErrorResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("status %d, body %q is not the error envelope: %v", status, raw, err)
	}
	if status != http.StatusInternalServerError || contentType != "application/json" ||
		body.Code != "internal" || !strings.Contains(body.Error, "encoding response") || !strings.Contains(body.Error, "NaN") {
		t.Fatalf("status %d (%s), envelope %+v; want 500 with code internal naming the NaN encoding error", status, contentType, body)
	}
}

// TestWriteJSONUnencodable: a NaN cannot be JSON-encoded, so
// httpapi.WriteJSON must not have sent its status before finding out.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	httpapi.WriteJSON(rec, http.StatusOK, WhatIfResponse{Value: math.NaN()})
	requireEncodingEnvelope(t, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
}

// TestNaNAnswerIsAnEnvelope is the same end to end: a CSV session whose
// output column holds a NaN answers a local what-if with NaN, which the API
// reports as the 500 envelope.
func TestNaNAnswerIsAnEnvelope(t *testing.T) {
	ts := newTestServer(t, Config{})
	var info SessionInfo
	if code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "nan",
		CSV: &CSVDatabase{
			Tables: []CSVTable{{Name: "T", Data: "X,Y\n0,1\n1,NaN\n2,3\n1,4\n"}},
			Model:  &CSVModel{Edges: [][2]string{{"T.X", "T.Y"}}},
		},
	}, &info); code != http.StatusOK {
		t.Fatalf("csv session: status %d", code)
	}
	body, err := json.Marshal(QueryRequest{Query: `USE T UPDATE(X) = 1 OUTPUT AVG(POST(Y))`, Placement: "local"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/nan/whatif", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	requireEncodingEnvelope(t, resp.StatusCode, resp.Header.Get("Content-Type"), raw)
}

// TestErrorEnvelopeTable pins the full envelope — code and retryable, not
// just status — across the resource-oriented surface, including the two
// error pages net/http writes itself (unrouted path, wrong method), which
// httpapi.Serve must convert to the same JSON shape.
func TestErrorEnvelopeTable(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")

	cases := []struct {
		name      string
		method    string
		path      string
		body      string
		want      int
		code      string
		retryable bool
	}{
		{"mux unrouted path", "GET", "/v2/nope", "", 404, "not_found", false},
		{"mux wrong method", "DELETE", "/v1/sessions/g/whatif", "", 405, "method_not_allowed", false},
		// The body-addressed query routes are gone: a well-formed legacy
		// request gets the standard 404 envelope, not a mux page or a 500.
		{"legacy whatif gone", "POST", "/v1/whatif", `{"session":"g","query":"` + germanCount + `"}`, 404, "not_found", false},
		{"legacy howto gone", "POST", "/v1/howto", `{"session":"g","query":"x"}`, 404, "not_found", false},
		{"legacy explain gone", "POST", "/v1/explain", `{"session":"g","query":"` + germanCount + `"}`, 404, "not_found", false},
		{"legacy batch gone", "POST", "/v1/batch", `{"session":"g","queries":[{"query":"x"}]}`, 404, "not_found", false},
		{"get unknown session", "GET", "/v1/sessions/nope", "", 404, "not_found", false},
		{"scoped whatif unknown session", "POST", "/v1/sessions/nope/whatif", `{"query":"x"}`, 404, "not_found", false},
		{"session mismatch", "POST", "/v1/sessions/g/whatif", `{"session":"other","query":"x"}`, 400, "session_mismatch", false},
		{"unknown snapshot", "POST", "/v1/sessions/g/whatif", `{"query":"` + germanCount + `","snapshot":99}`, 404, "snapshot_not_found", false},
		{"unknown delta_vs", "POST", "/v1/sessions/g/whatif", `{"query":"` + germanCount + `","delta_vs":99}`, 404, "snapshot_not_found", false},
		{"delta_vs on explain", "POST", "/v1/sessions/g/explain", `{"query":"` + germanCount + `","delta_vs":1}`, 400, "bad_request", false},
		{"append unknown session", "POST", "/v1/sessions/nope/rows", `{"tables":[{"name":"T","data":"A\n1\n"}]}`, 404, "not_found", false},
		{"append no tables", "POST", "/v1/sessions/g/rows", `{}`, 400, "bad_request", false},
		{"append unknown relation", "POST", "/v1/sessions/g/rows", `{"tables":[{"name":"Nope","data":"A\n1\n"}]}`, 400, "bad_request", false},
		{"snapshots unknown session", "GET", "/v1/sessions/nope/snapshots", "", 404, "not_found", false},
		{"duplicate session name", "POST", "/v1/sessions", `{"name":"g","dataset":"german"}`, 409, "conflict", false},
		{"bad limit", "GET", "/v1/sessions?limit=abc", "", 400, "bad_request", false},
		{"negative limit", "GET", "/v1/jobs?limit=-1", "", 400, "bad_request", false},
		{"bad job cursor", "GET", "/v1/jobs?limit=2&after=bogus", "", 400, "bad_cursor", false},
		{"bad usage cursor", "GET", "/v1/usage?limit=2&after=%21%21", "", 400, "bad_cursor", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = bytes.NewReader([]byte(tc.body))
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.want, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var body httpapi.ErrorResponse
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("error body %q does not decode as the envelope: %v", raw, err)
			}
			if body.Error == "" || body.Code != tc.code || body.Retryable != tc.retryable {
				t.Errorf("envelope = %+v, want code %q retryable %v", body, tc.code, tc.retryable)
			}
		})
	}

	// Admission pressure is the one retryable client error on this surface.
	small := newTestServer(t, Config{MaxSessions: 1})
	createSession(t, small, "only")
	var envelope httpapi.ErrorResponse
	if code := do(t, "POST", small.URL+"/v1/sessions", CreateSessionRequest{Name: "more", Dataset: "german", Scale: 0.1}, &envelope); code != http.StatusTooManyRequests {
		t.Fatalf("session over limit: status %d", code)
	}
	if envelope.Code != "session_limit" || !envelope.Retryable {
		t.Fatalf("session-limit envelope = %+v, want retryable session_limit", envelope)
	}
}

// TestServerBodyCap: MaxBodyBytes caps every body hyperd reads, the
// coordinator's registration route included; one byte over is the 413
// body_too_large envelope, not a decoding 400.
func TestServerBodyCap(t *testing.T) {
	const limit = 64
	ts := newTestServer(t, Config{MaxBodyBytes: limit})
	var info SessionInfo
	if code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "g", Dataset: "german", Scale: 0.1}, &info); code != http.StatusOK {
		t.Fatalf("create session under the cap: status %d", code)
	}
	// Each body is one JSON value of the route's own request shape, padded
	// to limit+1 bytes.
	over := func(head, tail string) string { return head + strings.Repeat("x", limit+1-len(head)-len(tail)) + tail }
	for _, c := range []struct{ path, body string }{
		{"/v1/sessions", over(`{"name":"`, `"}`)},
		{"/v1/sessions/g/whatif", over(`{"query":"`, `"}`)},
		{"/v1/sessions/g/howto", over(`{"query":"`, `"}`)},
		{"/v1/sessions/g/explain", over(`{"query":"`, `"}`)},
		{"/v1/sessions/g/batch", over(`{"queries":[{"query":"`, `"}]}`)},
		{"/v1/sessions/g/rows", over(`{"tables":[{"name":"`, `"}]}`)},
		{"/v1/jobs", over(`{"session":"g","query":"`, `"}`)},
		{"/dist/v1/workers", over(`{"id":"w","url":"`, `"}`)},
	} {
		if len(c.body) != limit+1 {
			t.Fatalf("%s body is %d bytes, want %d", c.path, len(c.body), limit+1)
		}
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env httpapi.ErrorResponse
		if err := json.Unmarshal(raw, &env); err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge ||
			resp.Header.Get("Content-Type") != "application/json" || env.Code != "body_too_large" || env.Error == "" || env.Retryable {
			t.Errorf("POST %s with %d bytes over a cap of %d: status %d, body %s; want 413 body_too_large", c.path, len(c.body), limit, resp.StatusCode, raw)
		}
	}
}
