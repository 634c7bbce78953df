package server

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyper"
	"hyper/internal/dataset"
	"hyper/internal/dist"
	"hyper/internal/fault"
	"hyper/internal/httpapi"
	"hyper/internal/relation"
	"hyper/internal/shard"
)

// sessionEntry is one live session: a named database + causal model bound to
// a bounded engine cache, plus the session's MVCC version chain. Every data
// state the session has ever been in is an immutable snapshotEntry; an
// append publishes a new snapshot atomically, so a query that resolved its
// snapshot keeps evaluating against exactly that data no matter how many
// appends land meanwhile. The engine and plan caches are shared across the
// chain — cache identity is version-qualified below the hyper layer, so
// entries for different versions can never collide.
type sessionEntry struct {
	name      string
	dataset   string // registry name, or "csv"
	schemaSig string // relation-name signature, the schema half of shape fingerprints
	created   time.Time
	queries   atomic.Int64
	dist      *dist.Coordinator // shard transport (placement knob)
	fault     *fault.Injector   // the stage point of local what-ifs (nil in production)
	shardRows int               // the strided plan's rows per shard (append accounting)

	// mu guards the version chain; snaps[i] is version i+1 and the last
	// element is head. Snapshots are append-only and immutable once
	// published.
	mu    sync.RWMutex
	snaps []*snapshotEntry

	// appendMu serializes appends (parse, extend, publish).
	appendMu sync.Mutex
}

// snapshotEntry is one immutable version of a session's data: the derived
// hyper.Session evaluating it and the content-addressed dist frame shipping
// it. Version 1 is the session's creation state (a full-snapshot frame);
// every append adds a version whose frame is a delta naming its parent.
type snapshotEntry struct {
	version  int64
	sess     *hyper.Session
	frame    *dist.Frame
	rows     int // total rows across relations at this version
	appended int // rows this version's append added (0 for version 1)
	created  time.Time
}

// head returns the newest snapshot.
func (e *sessionEntry) head() *snapshotEntry {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snaps[len(e.snaps)-1]
}

// resolve maps a wire snapshot version to its entry: 0 means head, any
// published version pins that exact state, anything else is a 404 with code
// snapshot_not_found. Versions are contiguous from 1, so resolution is
// index math.
func (e *sessionEntry) resolve(v int64) (*snapshotEntry, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if v == 0 {
		return e.snaps[len(e.snaps)-1], nil
	}
	if v >= 1 && v <= int64(len(e.snaps)) {
		return e.snaps[v-1], nil
	}
	return nil, httpapi.CodeErrorf(http.StatusNotFound, "snapshot_not_found",
		"session %q has no snapshot version %d (head is %d)", e.name, v, len(e.snaps))
}

// SessionOptions is the wire form of hyper.Options.
type SessionOptions struct {
	// Mode is full|nb|indep (default full).
	Mode       string `json:"mode,omitempty"`
	SampleSize int    `json:"sample_size,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Buckets    int    `json:"buckets,omitempty"`
	// Shards is the session's default evaluation fan-out (0 = GOMAXPROCS);
	// per-request shards fields override it. Execution only — results are
	// identical for every value.
	Shards int `json:"shards,omitempty"`
	// ShardRows tunes the rows-per-shard granularity of the canonical
	// evaluation plan (default 4096; part of evaluation semantics). Values
	// below minShardRows are rejected: a tiny granularity on a large
	// dataset makes every evaluation build thousands of per-shard indexes —
	// a remote-triggerable CPU and allocation blowup.
	ShardRows int `json:"shard_rows,omitempty"`
}

// minShardRows is the smallest granularity accepted over the wire.
const minShardRows = 256

// CSVTable is one inline CSV-encoded relation.
type CSVTable struct {
	Name string `json:"name"`
	// Data is the CSV text; the first row is the header, column kinds are
	// inferred.
	Data string `json:"data"`
	// Keys names the primary-key columns; empty adds a synthetic RowID key
	// so duplicate data rows are legal.
	Keys []string `json:"keys,omitempty"`
}

// CSVForeignKey declares a child->parent link between uploaded tables.
type CSVForeignKey struct {
	Child     string `json:"child"`
	ChildCol  string `json:"child_col"`
	Parent    string `json:"parent"`
	ParentCol string `json:"parent_col"`
}

// CSVCrossEdge is the wire form of a cross-tuple causal edge.
type CSVCrossEdge struct {
	FromRel  string `json:"from_rel"`
	FromAttr string `json:"from_attr"`
	ToRel    string `json:"to_rel"`
	ToAttr   string `json:"to_attr"`
	// GroupBy is the qualified grouping attribute ("Rel.Attr").
	GroupBy string `json:"group_by"`
}

// CSVModel declares the causal model over uploaded tables. Edges use
// qualified "Rel.Attr" endpoints. An absent model runs the session in
// no-background mode.
type CSVModel struct {
	Edges [][2]string    `json:"edges,omitempty"`
	Cross []CSVCrossEdge `json:"cross,omitempty"`
}

// CSVDatabase is an inline database upload.
type CSVDatabase struct {
	Tables      []CSVTable      `json:"tables"`
	ForeignKeys []CSVForeignKey `json:"foreign_keys,omitempty"`
	Model       *CSVModel       `json:"model,omitempty"`
}

// CreateSessionRequest creates a named session from either a registry
// dataset or an inline CSV database.
type CreateSessionRequest struct {
	Name string `json:"name"`
	// Dataset is a registry name (GET /v1/datasets); mutually exclusive
	// with CSV.
	Dataset string          `json:"dataset,omitempty"`
	Scale   float64         `json:"scale,omitempty"`
	Seed    int64           `json:"seed,omitempty"`
	CSV     *CSVDatabase    `json:"csv,omitempty"`
	Options *SessionOptions `json:"options,omitempty"`
	// CacheEntries overrides the server's per-session cache bound
	// (<0 = unbounded).
	CacheEntries *int `json:"cache_entries,omitempty"`
	// PlanCacheEntries overrides the server's per-session compiled-plan
	// cache bound (<0 = unbounded).
	PlanCacheEntries *int `json:"plan_cache_entries,omitempty"`
}

// SessionInfo describes a live session.
type SessionInfo struct {
	Name      string   `json:"name"`
	Dataset   string   `json:"dataset"`
	Relations []string `json:"relations"`
	Rows      int      `json:"rows"`
	// Version is the head snapshot version; Snapshots counts the published
	// versions (1 at creation, +1 per append).
	Version   int64            `json:"version"`
	Snapshots int              `json:"snapshots"`
	Queries   int64            `json:"queries"`
	CreatedAt time.Time        `json:"created_at"`
	Cache     hyper.CacheStats `json:"cache"`
	// Plan is the session's compiled-plan cache counters.
	Plan hyper.PlanCacheStats `json:"plan"`
}

func (e *sessionEntry) info() SessionInfo {
	e.mu.RLock()
	head := e.snaps[len(e.snaps)-1]
	count := len(e.snaps)
	e.mu.RUnlock()
	db := head.sess.DB()
	info := SessionInfo{
		Name:      e.name,
		Dataset:   e.dataset,
		Relations: db.Names(),
		Rows:      db.TotalRows(),
		Version:   head.version,
		Snapshots: count,
		Queries:   e.queries.Load(),
		CreatedAt: e.created,
		Cache:     head.sess.Cache().Stats(),
	}
	if pc := head.sess.PlanCache(); pc != nil {
		info.Plan = pc.Stats()
	}
	return info
}

// DatasetInfo describes one registry builder.
type DatasetInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// DatasetsResponse is the GET /v1/datasets payload.
type DatasetsResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

func (s *Server) handleDatasets(*http.Request) (any, error) {
	var out []DatasetInfo
	for _, b := range dataset.Registry() {
		out = append(out, DatasetInfo{Name: b.Name, Description: b.Description})
	}
	return &DatasetsResponse{Datasets: out}, nil
}

// SessionListResponse is the GET /v1/sessions payload; Next is the cursor of
// the following page when ?limit= truncated the listing (sessions paginate
// by name, the registry's stable sort key).
type SessionListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
	Next     string        `json:"next,omitempty"`
}

func (s *Server) handleListSessions(r *http.Request) (any, error) {
	page, err := parsePage(r)
	if err != nil {
		return nil, err
	}
	entries := s.sortedEntries()
	entries, next := paginate(entries, func(e *sessionEntry) string { return e.name }, page.after, page)
	out := make([]SessionInfo, len(entries))
	for i, e := range entries {
		out[i] = e.info()
	}
	return &SessionListResponse{Sessions: out, Next: next}, nil
}

func (s *Server) handleGetSession(r *http.Request) (any, error) {
	e, err := s.session(r.PathValue("name"))
	if err != nil {
		return nil, err
	}
	return e.info(), nil
}

func (s *Server) handleCreateSession(r *http.Request) (any, error) {
	var req CreateSessionRequest
	if err := httpapi.Decode(r, &req); err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.Name) == "" {
		return nil, httpapi.Errorf(http.StatusBadRequest, "session name is required")
	}
	if (req.Dataset == "") == (req.CSV == nil) {
		return nil, httpapi.Errorf(http.StatusBadRequest, "exactly one of dataset or csv is required")
	}
	// Cheap pre-check so a doomed request doesn't pay for a dataset build
	// or CSV parse; the authoritative check re-runs under the write lock
	// below (another request may win the name in between).
	if err := s.checkAdmissible(req.Name); err != nil {
		return nil, err
	}

	var (
		db    *hyper.Database
		model *hyper.CausalModel
		from  string
	)
	if req.Dataset != "" {
		b, err := dataset.Lookup(req.Dataset)
		if err != nil {
			return nil, httpapi.Errorf(http.StatusBadRequest, "%v", err)
		}
		scale := req.Scale
		if scale <= 0 {
			scale = 1
		}
		seed := req.Seed
		if seed == 0 {
			seed = 7
		}
		db, model = b.Build(scale, seed)
		from = b.Name
	} else {
		var err error
		db, model, err = buildCSVDatabase(req.CSV)
		if err != nil {
			return nil, err
		}
		from = "csv"
	}
	if model != nil {
		if err := model.Validate(db); err != nil {
			return nil, httpapi.Errorf(http.StatusBadRequest, "causal model does not validate: %v", err)
		}
	}

	opts := hyper.Options{}
	if o := req.Options; o != nil {
		mode, err := parseMode(o.Mode)
		if err != nil {
			return nil, err
		}
		if o.ShardRows != 0 && o.ShardRows < minShardRows {
			return nil, httpapi.Errorf(http.StatusBadRequest, "shard_rows must be 0 (default) or >= %d", minShardRows)
		}
		opts = hyper.Options{
			Mode: mode, SampleSize: o.SampleSize, Seed: o.Seed, Buckets: o.Buckets,
			Shards: o.Shards, ShardRows: o.ShardRows,
		}
	}
	cacheEntries := s.cfg.CacheEntries
	if req.CacheEntries != nil {
		cacheEntries = *req.CacheEntries
		if cacheEntries < 0 {
			cacheEntries = 0
		}
	}
	planEntries := s.cfg.PlanCacheEntries
	if req.PlanCacheEntries != nil {
		planEntries = *req.PlanCacheEntries
		if planEntries < 0 {
			planEntries = 0
		}
	}
	// Server sessions are versioned from birth: version 1 is the creation
	// snapshot, and every append publishes the next. (Bare library databases
	// stay version 0, the pre-MVCC cache identity.)
	db.SetVersion(1)
	sess := hyper.NewSessionWithCache(db, model, hyper.NewCacheBounded(cacheEntries))
	sess.SetOptions(opts)
	// Each session owns its plan cache (cache identity is query fingerprint +
	// schema signature, and the signature is only unique within a session's
	// database); deleting the session drops every cached plan with it. All
	// sessions share one compile-latency histogram.
	pc := hyper.NewPlanCache(planEntries)
	pc.SetCompileObserver(s.planCompile.Observe)
	sess.SetPlanCache(pc)

	e := &sessionEntry{
		name: req.Name, dataset: from, created: time.Now(),
		schemaSig: strings.Join(db.Names(), ","),
		dist:      s.dist, fault: s.cfg.Fault, shardRows: opts.ShardRows,
	}
	e.snaps = []*snapshotEntry{{
		version: db.Version(), sess: sess, frame: dist.NewFrame(db, model),
		rows: db.TotalRows(), created: e.created,
	}}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAdmissibleLocked(req.Name); err != nil {
		return nil, err
	}
	s.sessions[req.Name] = e
	return e.info(), nil
}

// AppendTable is one relation's appended rows, CSV-encoded. The header must
// name the relation's columns in schema order; a relation created with a
// synthetic RowID key omits it (RowIDs continue from the current row count).
type AppendTable struct {
	Name string `json:"name"`
	Data string `json:"data"`
}

// AppendRequest appends rows to a live session, publishing a new snapshot
// version. Appends are the only mutation the API has: no row is ever updated
// or deleted in place, so every published version stays immutable.
type AppendRequest struct {
	Tables []AppendTable `json:"tables"`
}

// AppendResponse reports the published snapshot. ShardsFitted/ShardsReused
// split each relation's prefix-stable strided shard plan (shard.Strided at
// the session's shard_rows): fitted shards hold appended rows, reused shards
// were sealed by earlier versions.
type AppendResponse struct {
	Session      string `json:"session"`
	Version      int64  `json:"version"`
	Rows         int    `json:"rows"`
	AppendedRows int    `json:"appended_rows"`
	ShardsFitted int    `json:"shards_fitted"`
	ShardsReused int    `json:"shards_reused"`
}

// handleAppendRows is POST /v1/sessions/{name}/rows: parse the appended CSV
// rows against the live schema, extend the database copy-on-write (shared
// tuple storage, bumped version), and atomically publish the new head.
// Running queries hold their resolved snapshotEntry and are unaffected.
func (s *Server) handleAppendRows(r *http.Request) (any, error) {
	e, err := s.session(r.PathValue("name"))
	if err != nil {
		return nil, err
	}
	var req AppendRequest
	if err := httpapi.Decode(r, &req); err != nil {
		return nil, err
	}
	if len(req.Tables) == 0 {
		return nil, httpapi.Errorf(http.StatusBadRequest, "append has no tables")
	}

	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	head := e.head()
	db := head.sess.DB()
	appends := make(map[string][]relation.Tuple, len(req.Tables))
	total := 0
	for _, t := range req.Tables {
		rel := db.Relation(t.Name)
		if rel == nil {
			return nil, httpapi.Errorf(http.StatusBadRequest, "session %q has no relation %q", e.name, t.Name)
		}
		prior := len(appends[t.Name])
		tuples, err := rel.ParseAppendRows(strings.NewReader(t.Data), prior)
		if err != nil {
			return nil, httpapi.Errorf(http.StatusBadRequest, "%v", err)
		}
		appends[t.Name] = append(appends[t.Name], tuples...)
		total += len(tuples)
	}
	if total == 0 {
		return nil, httpapi.Errorf(http.StatusBadRequest, "append has no rows")
	}

	sess, err := head.sess.Append(appends)
	if err != nil {
		// Extend validates arity, coercion and key uniqueness; failures are
		// client data errors and nothing has been published.
		return nil, httpapi.Errorf(http.StatusBadRequest, "%v", err)
	}
	newDB := sess.DB()

	// The strided plan is prefix-stable: a shard that ends at or below a
	// relation's previous row count was sealed by an earlier version (reused),
	// any other holds appended rows (fitted).
	fitted, reused := 0, 0
	for _, name := range newDB.Names() {
		plan, prev := shard.Strided(newDB.Relation(name).Len(), e.shardRows), db.Relation(name).Len()
		for i := 0; i < plan.Shards(); i++ {
			if _, hi := plan.Bounds(i); hi <= prev {
				reused++
			} else {
				fitted++
			}
		}
	}
	stampAppend(r.Context(), e, appends, fitted, reused)

	sn := &snapshotEntry{
		version: sess.Version(), sess: sess,
		frame:    dist.NewFrameDelta(head.frame, newDB),
		rows:     newDB.TotalRows(),
		appended: total,
		created:  time.Now(),
	}
	e.mu.Lock()
	e.snaps = append(e.snaps, sn)
	e.mu.Unlock()
	return &AppendResponse{
		Session: e.name, Version: sn.version, Rows: sn.rows,
		AppendedRows: total, ShardsFitted: fitted, ShardsReused: reused,
	}, nil
}

// SnapshotInfo describes one published session version.
type SnapshotInfo struct {
	Version      int64     `json:"version"`
	Rows         int       `json:"rows"`
	AppendedRows int       `json:"appended_rows,omitempty"`
	CreatedAt    time.Time `json:"created_at"`
}

// SnapshotListResponse is the GET /v1/sessions/{name}/snapshots payload,
// oldest version first; Head repeats the newest version for convenience.
type SnapshotListResponse struct {
	Session   string         `json:"session"`
	Head      int64          `json:"head"`
	Snapshots []SnapshotInfo `json:"snapshots"`
}

func (s *Server) handleListSnapshots(r *http.Request) (any, error) {
	e, err := s.session(r.PathValue("name"))
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	snaps := make([]*snapshotEntry, len(e.snaps))
	copy(snaps, e.snaps)
	e.mu.RUnlock()
	out := SnapshotListResponse{Session: e.name, Head: snaps[len(snaps)-1].version}
	for _, sn := range snaps {
		out.Snapshots = append(out.Snapshots, SnapshotInfo{
			Version: sn.version, Rows: sn.rows, AppendedRows: sn.appended, CreatedAt: sn.created,
		})
	}
	return &out, nil
}

// checkAdmissible verifies a new session name is free and the registry has
// room.
func (s *Server) checkAdmissible(name string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkAdmissibleLocked(name)
}

func (s *Server) checkAdmissibleLocked(name string) error {
	if _, exists := s.sessions[name]; exists {
		return httpapi.Errorf(http.StatusConflict, "session %q already exists", name)
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return httpapi.CodeErrorf(http.StatusTooManyRequests, "session_limit", "session limit reached (%d)", s.cfg.MaxSessions)
	}
	return nil
}

// sortedEntries snapshots the session registry in name order.
func (s *Server) sortedEntries() []*sessionEntry {
	s.mu.RLock()
	entries := make([]*sessionEntry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}

// DeleteSessionResponse is the DELETE /v1/sessions/{name} payload.
type DeleteSessionResponse struct {
	Deleted       string `json:"deleted"`
	JobsCancelled int    `json:"jobs_cancelled"`
}

func (s *Server) handleDeleteSession(r *http.Request) (any, error) {
	name := r.PathValue("name")
	s.mu.Lock()
	if _, ok := s.sessions[name]; !ok {
		s.mu.Unlock()
		return nil, httpapi.Errorf(http.StatusNotFound, "unknown session %q", name)
	}
	delete(s.sessions, name)
	s.mu.Unlock()
	// Jobs against a deleted session keep a reference to its entry but have
	// no caller left; cancel them so they stop burning cores.
	cancelled := s.jobs.CancelSession(name)
	return &DeleteSessionResponse{Deleted: name, JobsCancelled: cancelled}, nil
}

// buildCSVDatabase assembles a database and optional causal model from an
// inline upload. CSV columns get inferred kinds and are mutable, so any
// column can be the target of UPDATE/HOWTOUPDATE.
func buildCSVDatabase(c *CSVDatabase) (*hyper.Database, *hyper.CausalModel, error) {
	if len(c.Tables) == 0 {
		return nil, nil, httpapi.Errorf(http.StatusBadRequest, "csv upload has no tables")
	}
	db := hyper.NewDatabase()
	for _, t := range c.Tables {
		if strings.TrimSpace(t.Name) == "" {
			return nil, nil, httpapi.Errorf(http.StatusBadRequest, "csv table has no name")
		}
		rel, err := hyper.ReadCSVKeyed(t.Name, strings.NewReader(t.Data), t.Keys)
		if err != nil {
			return nil, nil, httpapi.Errorf(http.StatusBadRequest, "table %q: %v", t.Name, err)
		}
		if err := db.Add(rel); err != nil {
			return nil, nil, httpapi.Errorf(http.StatusBadRequest, "%v", err)
		}
	}
	for _, fk := range c.ForeignKeys {
		err := db.AddForeignKey(hyper.ForeignKey{
			Child: fk.Child, ChildCol: fk.ChildCol,
			Parent: fk.Parent, ParentCol: fk.ParentCol,
		})
		if err != nil {
			return nil, nil, httpapi.Errorf(http.StatusBadRequest, "foreign key: %v", err)
		}
	}
	if c.Model == nil {
		return db, nil, nil
	}
	m := hyper.NewCausalModel()
	for _, e := range c.Model.Edges {
		m.AddEdge(e[0], e[1])
	}
	for _, ce := range c.Model.Cross {
		m.AddCross(hyper.CrossEdge{
			FromRel: ce.FromRel, FromAttr: ce.FromAttr,
			ToRel: ce.ToRel, ToAttr: ce.ToAttr,
			GroupBy: ce.GroupBy,
		})
	}
	return db, m, nil
}
