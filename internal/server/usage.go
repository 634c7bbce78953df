package server

import (
	"context"
	"encoding/base64"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// usageTable is the query-shape usage analytics store: every completed
// metered query lands in one row keyed by (session, kind, shape
// fingerprint), accumulating a count, an error count, wall time, and the
// summed cost vector. The table is bounded — when full, recording a new
// shape evicts the least-used (then oldest) row, so a daemon hammered with
// unique shapes keeps its hottest K and constant memory. Rows survive
// session deletion deliberately: usage analytics describe traffic history,
// not live state.
type usageTable struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*usageRow
}

type usageRow struct {
	session     string
	kind        string
	fingerprint string
	shape       string // normalized shape text (an example rendering)
	count       uint64
	errors      uint64
	totalMs     float64
	lastSeen    time.Time
	cost        *obs.MeterJSON
}

func newUsageTable(capacity int) *usageTable {
	return &usageTable{cap: capacity, entries: make(map[string]*usageRow)}
}

// record folds one completed query into its shape's row.
func (t *usageTable) record(session, kind, fingerprint, shape string, mj *obs.MeterJSON, wallMs float64, failed bool) {
	key := session + "\x1f" + kind + "\x1f" + fingerprint
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.entries[key]
	if !ok {
		if len(t.entries) >= t.cap {
			t.evictLocked()
		}
		row = &usageRow{
			session: session, kind: kind, fingerprint: fingerprint, shape: shape,
			cost: &obs.MeterJSON{},
		}
		t.entries[key] = row
	}
	row.count++
	if failed {
		row.errors++
	}
	row.totalMs += wallMs
	row.lastSeen = time.Now()
	row.cost.Add(mj)
}

// evictLocked drops the least-used row (oldest last-seen breaks ties).
func (t *usageTable) evictLocked() {
	var victim string
	var vrow *usageRow
	for k, r := range t.entries {
		if vrow == nil || r.count < vrow.count ||
			(r.count == vrow.count && r.lastSeen.Before(vrow.lastSeen)) {
			victim, vrow = k, r
		}
	}
	if vrow != nil {
		delete(t.entries, victim)
	}
}

// UsageEntry is the wire form of one shape's accumulated usage.
type UsageEntry struct {
	Session     string    `json:"session"`
	Kind        string    `json:"kind"`
	Fingerprint string    `json:"fingerprint"`
	Shape       string    `json:"shape"`
	Count       uint64    `json:"count"`
	Errors      uint64    `json:"errors,omitempty"`
	TotalMs     float64   `json:"total_ms"`
	MeanMs      float64   `json:"mean_ms"`
	LastSeen    time.Time `json:"last_seen"`
	// Cost is the summed cost vector of every recorded run of this shape
	// (PlanShards is kept as a max; see obs.MeterJSON.Add).
	Cost *obs.MeterJSON `json:"cost"`
}

// snapshot renders the table, hottest shape first (count desc, then
// fingerprint for a stable order); session filters when non-empty.
func (t *usageTable) snapshot(session string) []UsageEntry {
	t.mu.Lock()
	out := make([]UsageEntry, 0, len(t.entries))
	for _, r := range t.entries {
		if session != "" && r.session != session {
			continue
		}
		cost := *r.cost // copy so the snapshot is immune to later folds
		if len(r.cost.StagesMs) > 0 {
			cost.StagesMs = make(map[string]float64, len(r.cost.StagesMs))
			for k, v := range r.cost.StagesMs {
				cost.StagesMs[k] = v
			}
		}
		out = append(out, UsageEntry{
			Session: r.session, Kind: r.kind, Fingerprint: r.fingerprint, Shape: r.shape,
			Count: r.count, Errors: r.errors, TotalMs: r.totalMs,
			MeanMs: r.totalMs / float64(r.count), LastSeen: r.lastSeen, Cost: &cost,
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// UsageResponse is the GET /v1/usage payload. Unpaginated listings keep the
// hottest-first order; when ?limit=/?after= are present the shapes come in
// stable composite-key order (session, kind, fingerprint) with Next holding
// the cursor of the following page.
type UsageResponse struct {
	Shapes []UsageEntry `json:"shapes"`
	Next   string       `json:"next,omitempty"`
}

func (s *Server) handleUsage(r *http.Request) (any, error) {
	return s.usagePage(r, "")
}

func (s *Server) handleUsageSession(r *http.Request) (any, error) {
	return s.usagePage(r, r.PathValue("session"))
}

// usageKey is the usage table's stable pagination key; cursors are its
// base64url encoding so the \x1f separators survive any transport.
func usageKey(u UsageEntry) string {
	return u.Session + "\x1f" + u.Kind + "\x1f" + u.Fingerprint
}

func (s *Server) usagePage(r *http.Request, session string) (any, error) {
	page, err := parsePage(r)
	if err != nil {
		return nil, err
	}
	shapes := s.usage.snapshot(session)
	if !page.active() {
		return &UsageResponse{Shapes: shapes}, nil
	}
	if page.after != "" {
		raw, err := base64.RawURLEncoding.DecodeString(page.after)
		if err != nil {
			return nil, errBadCursor("usage cursor %q is not base64url", page.after)
		}
		if strings.Count(string(raw), "\x1f") != 2 {
			return nil, errBadCursor("usage cursor %q is not a (session, kind, fingerprint) key", page.after)
		}
		page.after = string(raw)
	}
	sort.Slice(shapes, func(i, j int) bool { return usageKey(shapes[i]) < usageKey(shapes[j]) })
	shapes, next := paginate(shapes, usageKey, page.after, page)
	if next != "" {
		next = base64.RawURLEncoding.EncodeToString([]byte(next))
	}
	return &UsageResponse{Shapes: shapes, Next: next}, nil
}

// recordUsage finalizes one metered request: the cost histograms observe the
// vector under the endpoint label, and — when the query was stamped with a
// shape — the usage table accumulates it. Called for every traced request
// and for every finished job (endpoint "job:<kind>"); the request's latency
// is hyper_request_duration_ms's, observed by statsRecorder.
func (s *Server) recordUsage(endpoint string, m *obs.Meter, elapsed time.Duration, failed bool) {
	if m == nil {
		return
	}
	mj := m.JSON()
	s.costTuples.With(endpoint).Observe(float64(mj.TuplesEvaluated))
	s.costShards.With(endpoint).Observe(float64(mj.ShardsRun))
	session, kind, fingerprint, shape := m.Shape()
	if fingerprint == "" {
		return
	}
	s.usage.record(session, kind, fingerprint, shape, mj, float64(elapsed)/float64(time.Millisecond), failed)
}

// stampShape stamps the request's meter with the shape identity the usage
// table aggregates a bound query under: session, kind, and the
// schema-qualified structural fingerprint.
func stampShape(ctx context.Context, e *sessionEntry, b *boundQuery) {
	if meter := obs.MeterFromContext(ctx); meter != nil {
		meter.SetShape(e.name, b.kind, hyperql.Fingerprint(e.schemaSig, b.ast), hyperql.Shape(b.ast))
	}
}

// stampBatchShape stamps a batch request's meter with a composite shape:
// the fingerprint hashes the ordered element fingerprints, so two batches
// running the same query shapes in the same order aggregate together
// (batch arity is structural, like IN-list arity). Elements that failed to
// bind are skipped — they fail element-locally without sinking the batch.
func stampBatchShape(ctx context.Context, e *sessionEntry, elems []batchElem) {
	meter := obs.MeterFromContext(ctx)
	if meter == nil {
		return
	}
	h := fnv.New64a()
	io.WriteString(h, e.schemaSig)
	for _, el := range elems {
		if el.err != nil {
			continue
		}
		io.WriteString(h, "\x00")
		io.WriteString(h, hyperql.Fingerprint(e.schemaSig, el.q.ast))
	}
	meter.SetShape(e.name, "batch",
		fmt.Sprintf("%016x", h.Sum64()), fmt.Sprintf("BATCH(%d)", len(elems)))
}

// stampAppend stamps an append's meter: the shape aggregates appends by
// their touched-relation set, and the cost vector carries the strided shard
// split (append_shards_fitted / append_shards_reused) the response reports.
func stampAppend(ctx context.Context, e *sessionEntry, appends map[string][]relation.Tuple, fitted, reused int) {
	meter := obs.MeterFromContext(ctx)
	if meter == nil {
		return
	}
	meter.Charge(obs.MeterJSON{AppendShardsFit: uint64(fitted), AppendShardsReuse: uint64(reused)})
	names := make([]string, 0, len(appends))
	for name := range appends {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	io.WriteString(h, e.schemaSig)
	for _, n := range names {
		io.WriteString(h, "\x00")
		io.WriteString(h, n)
	}
	meter.SetShape(e.name, "append",
		fmt.Sprintf("%016x", h.Sum64()), "APPEND("+strings.Join(names, ",")+")")
}
