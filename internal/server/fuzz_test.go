package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hyper/internal/httpapi"
)

// FuzzRequestDecode sends arbitrary bodies to every route that decodes one —
// QueryRequest (whatif, howto, explain), BatchRequest, JobRequest,
// AppendRequest, CreateSessionRequest — through the strict decoder and on
// into the handler, over a 40-row session. Whatever the bytes, the status is
// never 5xx (a handler panic would be a 500) and every error is the JSON
// envelope.
func FuzzRequestDecode(f *testing.F) {
	const whatif = `USE Loans WHEN Savings = 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	const howto = `USE Loans HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	routes := []string{
		"/v1/sessions/s/whatif", "/v1/sessions/s/howto", "/v1/sessions/s/explain", "/v1/sessions/s/batch",
		"/v1/jobs", "/v1/sessions/s/rows", "/v1/sessions",
	}
	for _, seed := range []struct {
		route uint8
		body  any
	}{
		{0, QueryRequest{Query: whatif}}, {0, QueryRequest{Query: whatif, Snapshot: 1, DeltaVs: 1, Shards: 4, Placement: "local"}},
		{0, QueryRequest{Query: whatif, Snapshot: 99}}, {0, QueryRequest{Query: whatif, Placement: "fit"}}, {0, QueryRequest{Session: "other", Query: whatif}},
		{1, QueryRequest{Query: howto}}, {1, QueryRequest{Query: howto, Method: "brute"}}, {1, QueryRequest{Query: howto, Method: "mincost", Target: 12}},
		{1, QueryRequest{Query: howto, Method: "nope"}}, {2, QueryRequest{Query: whatif}}, {2, QueryRequest{Query: whatif, DeltaVs: 1}},
		{3, BatchRequest{Workers: 2, Queries: []BatchQuery{{Query: whatif}, {Kind: "howto", Query: howto}, {Kind: "explain", Query: "garbage"}}}},
		{3, BatchRequest{}}, {4, JobRequest{Session: "s", Kind: "whatif", Query: whatif, Priority: 3, TimeoutMs: 50}},
		{4, JobRequest{Session: "s", Kind: "howto", Query: howto, Method: "brute"}}, {4, JobRequest{Session: "s", Kind: "batch", Queries: []BatchQuery{{Query: whatif}}}},
		{4, JobRequest{Session: "nope", Query: whatif}}, {5, AppendRequest{Tables: []AppendTable{{Name: "Loans", Data: loansCSV(40, 43)}}}},
		{5, AppendRequest{Tables: []AppendTable{{Name: "Loans", Data: "Status\n1\n"}, {Name: "Nope"}}}}, {5, AppendRequest{}},
		{6, CreateSessionRequest{Name: "t", Dataset: "toy", Options: &SessionOptions{Mode: "nb", Seed: 3, ShardRows: 256}}},
		{6, CreateSessionRequest{Name: "c", CSV: &CSVDatabase{Tables: []CSVTable{{Name: "T", Data: "A,B\n1,2\n", Keys: []string{"A"}}}, Model: &CSVModel{Edges: [][2]string{{"T.A", "T.B"}}}}}},
		{6, CreateSessionRequest{Name: "s", Dataset: "toy"}}, {6, CreateSessionRequest{Name: "x", Options: &SessionOptions{ShardRows: 3}}},
	} {
		raw, err := json.Marshal(seed.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed.route, raw)
	}
	f.Add(uint8(0), []byte(`{"query":"USE Loans OUTPUT","unknown_field":1}`))
	f.Add(uint8(4), []byte(`{"session":"s","kind":"whatif","query":`))
	f.Add(uint8(6), []byte(`[]`))

	// One server for a stretch of inputs, replaced before what accepted
	// appends, sessions and finished jobs leave behind adds up.
	var srv *Server
	var handler http.Handler
	served := 0
	drain := func() {
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
		}
	}
	f.Cleanup(drain)
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec
	}
	create, err := json.Marshal(CreateSessionRequest{Name: "s", CSV: &CSVDatabase{
		Tables: []CSVTable{{Name: "Loans", Data: loansCSV(0, 40)}},
		Model:  &CSVModel{Edges: [][2]string{{"Loans.Status", "Loans.Credit"}, {"Loans.Savings", "Loans.Credit"}}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		// A registry dataset is generated at the scale the client names
		// (8k rows at most at scale 1): what a larger one costs is a
		// deployment's trust in its clients, not a decoding question.
		var req CreateSessionRequest
		if json.Unmarshal(body, &req) == nil && req.Dataset != "" && req.Scale > 1 {
			return
		}
		if srv == nil || served >= 256 {
			drain()
			srv = New(Config{MaxSessions: 8, JobRetention: 16})
			handler, served = srv.Handler(), 0
			if rec := post("/v1/sessions", create); rec.Code != http.StatusOK {
				t.Fatalf("creating the session: %d %s", rec.Code, rec.Body)
			}
		}
		served++
		path := routes[int(route)%len(routes)]
		rec := post(path, body)
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code >= 400 {
			var env httpapi.ErrorResponse
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("POST %s %q: status %d with Content-Type %q", path, body, rec.Code, ct)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
				t.Fatalf("POST %s %q: status %d with a body that is not the error envelope: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}
