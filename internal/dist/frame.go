package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"hyper/internal/causal"
	"hyper/internal/relation"
)

// A frame snapshot is the self-contained, bit-exact serialization of a
// session's data: every relation (schema + typed rows), the foreign keys,
// and the causal model. Workers rebuild the database from it, so value
// fidelity is absolute — values are tagged scalars, not CSV text, because a
// CSV round-trip re-infers kinds (2.0 → "2" → int) and would break the
// bit-identity contract. Frames are content-addressed (sha256 of the
// canonical JSON), so a session rebuilt with different data is a different
// frame and can never alias a worker's warm copy.

// ColumnSnapshot is the wire form of a schema column.
type ColumnSnapshot struct {
	Name    string `json:"name"`
	Kind    uint8  `json:"kind"`
	Key     bool   `json:"key,omitempty"`
	Mutable bool   `json:"mutable,omitempty"`
}

// RelationSnapshot is the wire form of one relation: schema plus rows in
// insertion order (row order is part of the determinism contract — the
// canonical shard plan partitions rows by position).
type RelationSnapshot struct {
	Name    string           `json:"name"`
	Columns []ColumnSnapshot `json:"columns"`
	Rows    [][]string       `json:"rows"`
}

// Snapshot is a serialized database + causal model.
type Snapshot struct {
	// Version is the MVCC snapshot version of the serialized database (0
	// for unversioned instances, omitted on the wire — pre-MVCC frame
	// bodies and their content addresses are unchanged).
	Version     int64                 `json:"version,omitempty"`
	Relations   []RelationSnapshot    `json:"relations"`
	ForeignKeys []relation.ForeignKey `json:"foreign_keys,omitempty"`
	// Model graph: nodes in insertion order, edges sorted (edge-set
	// semantics; every graph algorithm downstream is order-insensitive).
	HasModel bool               `json:"has_model,omitempty"`
	Nodes    []string           `json:"nodes,omitempty"`
	Edges    [][2]string        `json:"edges,omitempty"`
	Cross    []causal.CrossEdge `json:"cross,omitempty"`
}

// encodeValue renders a typed value as a tagged scalar: "_" NULL, "T"/"F"
// bool, "i<int>", "d<float>" ('g' -1 formatting round-trips float64
// exactly), "s<string>".
func encodeValue(v relation.Value) string {
	switch v.Kind() {
	case relation.KindNull:
		return "_"
	case relation.KindBool:
		if v.AsBool() {
			return "T"
		}
		return "F"
	case relation.KindInt:
		return "i" + strconv.FormatInt(v.AsInt(), 10)
	case relation.KindFloat:
		return "d" + strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	default:
		return "s" + v.AsString()
	}
}

func decodeValue(s string) (relation.Value, error) {
	if s == "" {
		return relation.Null, fmt.Errorf("dist: empty value token")
	}
	switch s[0] {
	case '_':
		return relation.Null, nil
	case 'T':
		return relation.Bool(true), nil
	case 'F':
		return relation.Bool(false), nil
	case 'i':
		i, err := strconv.ParseInt(s[1:], 10, 64)
		if err != nil {
			return relation.Null, fmt.Errorf("dist: bad int token %q: %v", s, err)
		}
		return relation.Int(i), nil
	case 'd':
		f, err := strconv.ParseFloat(s[1:], 64)
		if err != nil {
			return relation.Null, fmt.Errorf("dist: bad float token %q: %v", s, err)
		}
		return relation.Float(f), nil
	case 's':
		return relation.String(s[1:]), nil
	default:
		return relation.Null, fmt.Errorf("dist: unknown value tag %q", s[0])
	}
}

// EncodeSnapshot serializes a database and (optional) causal model.
func EncodeSnapshot(db *relation.Database, model *causal.Model) *Snapshot {
	s := &Snapshot{Version: db.Version(), ForeignKeys: db.ForeignKeys()}
	for _, name := range db.Names() {
		rel := db.Relation(name)
		rs := RelationSnapshot{Name: name}
		for _, c := range rel.Schema().Columns() {
			rs.Columns = append(rs.Columns, ColumnSnapshot{
				Name: c.Name, Kind: uint8(c.Kind), Key: c.Key, Mutable: c.Mutable,
			})
		}
		rs.Rows = make([][]string, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			enc := make([]string, len(rs.Columns))
			for j := range enc {
				enc[j] = encodeValue(rel.Value(i, j))
			}
			rs.Rows[i] = enc
		}
		s.Relations = append(s.Relations, rs)
	}
	if model != nil {
		s.HasModel = true
		s.Nodes = model.Attr.Nodes()
		s.Edges = model.Attr.Edges()
		s.Cross = append([]causal.CrossEdge(nil), model.Cross...)
	}
	return s
}

// Build reconstructs the database and model from a snapshot.
func (s *Snapshot) Build() (*relation.Database, *causal.Model, error) {
	db := relation.NewDatabase()
	db.SetVersion(s.Version)
	for _, rs := range s.Relations {
		cols := make([]relation.Column, len(rs.Columns))
		for i, c := range rs.Columns {
			cols[i] = relation.Column{Name: c.Name, Kind: relation.Kind(c.Kind), Key: c.Key, Mutable: c.Mutable}
		}
		schema, err := relation.NewSchema(cols...)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: relation %q: %w", rs.Name, err)
		}
		rel := relation.NewRelation(rs.Name, schema)
		for ri, enc := range rs.Rows {
			t := make(relation.Tuple, len(enc))
			if len(enc) != len(cols) {
				return nil, nil, fmt.Errorf("dist: relation %q row %d has %d values, schema has %d columns",
					rs.Name, ri, len(enc), len(cols))
			}
			for j, v := range enc {
				val, err := decodeValue(v)
				if err != nil {
					return nil, nil, fmt.Errorf("dist: relation %q row %d: %w", rs.Name, ri, err)
				}
				t[j] = val
			}
			if err := rel.Insert(t); err != nil {
				return nil, nil, fmt.Errorf("dist: relation %q row %d: %w", rs.Name, ri, err)
			}
		}
		if err := db.Add(rel); err != nil {
			return nil, nil, err
		}
	}
	for _, fk := range s.ForeignKeys {
		if err := db.AddForeignKey(fk); err != nil {
			return nil, nil, err
		}
	}
	if !s.HasModel {
		return db, nil, nil
	}
	m := causal.NewModel()
	for _, n := range s.Nodes {
		m.Attr.AddNode(n)
	}
	for _, e := range s.Edges {
		m.Attr.AddEdge(e[0], e[1])
	}
	// Cross edges are assigned directly: their attribute-level edges are
	// already in Edges, and AddCross would record them twice.
	m.Cross = append([]causal.CrossEdge(nil), s.Cross...)
	return db, m, nil
}

// RelationDelta is the wire form of one relation's appended rows (tagged
// scalars, same encoding as RelationSnapshot rows).
type RelationDelta struct {
	Name string     `json:"name"`
	Rows [][]string `json:"rows"`
}

// Delta is the wire form of an incremental frame: the parent frame it
// extends, the MVCC version the extension publishes, and the appended rows
// per relation. Only new segments cross the wire — a session that appended
// 100 rows to a million-row base ships 100 rows, not a fresh snapshot. The
// delta body is content-addressed like a full snapshot, and because it
// names its parent's id, the address covers the whole version chain: two
// deltas agree iff their bases and their appended rows agree.
type Delta struct {
	Base    string          `json:"base"`
	Version int64           `json:"version"`
	Delta   []RelationDelta `json:"delta"`
}

// Frame is a lazily materialized, content-addressed snapshot of a session's
// data, shared by every distributed evaluation against that session. The
// encoding runs once; the id is the sha256 of the canonical JSON body, so
// identical data has one identity everywhere and changed data can never hit
// a stale worker copy. A frame built with NewFrameDelta encodes only the
// appended rows and names its parent frame, which the shipping path ensures
// is resident on the worker first.
type Frame struct {
	db       *relation.Database
	model    *causal.Model
	parent   *Frame
	appended map[string][]relation.Tuple

	once sync.Once
	id   string
	body []byte
	err  error
}

// NewFrame wraps a session's database and model. Encoding is deferred to
// the first Payload call.
func NewFrame(db *relation.Database, model *causal.Model) *Frame {
	return &Frame{db: db, model: model}
}

// NewFrameDelta wraps an appended session version as an incremental frame:
// db is the full post-append database (what workers must end up holding),
// parent is the frame of the version the append extended, and appended
// holds exactly the new tuples per relation. The wire body is the delta
// alone; workers that miss the parent are shipped the chain first.
func NewFrameDelta(parent *Frame, db *relation.Database, model *causal.Model, appended map[string][]relation.Tuple) *Frame {
	return &Frame{db: db, model: model, parent: parent, appended: appended}
}

// Parent returns the frame this delta extends (nil for full snapshots).
func (f *Frame) Parent() *Frame { return f.parent }

// Payload returns the frame id and canonical JSON body.
func (f *Frame) Payload() (string, []byte, error) {
	f.once.Do(func() {
		var raw []byte
		var err error
		if f.parent != nil {
			raw, err = f.encodeDelta()
		} else {
			raw, err = json.Marshal(EncodeSnapshot(f.db, f.model))
		}
		if err != nil {
			f.err = err
			return
		}
		sum := sha256.Sum256(raw)
		f.id = hex.EncodeToString(sum[:])
		f.body = raw
	})
	return f.id, f.body, f.err
}

// encodeDelta renders the delta body: relations in database order (the
// deterministic order every encoding in this package uses), empty appends
// skipped.
func (f *Frame) encodeDelta() ([]byte, error) {
	base, _, err := f.parent.Payload()
	if err != nil {
		return nil, err
	}
	d := Delta{Base: base, Version: f.db.Version()}
	for _, name := range f.db.Names() {
		tuples := f.appended[name]
		if len(tuples) == 0 {
			continue
		}
		rd := RelationDelta{Name: name, Rows: make([][]string, len(tuples))}
		for i, t := range tuples {
			enc := make([]string, len(t))
			for j, v := range t {
				enc[j] = encodeValue(v)
			}
			rd.Rows[i] = enc
		}
		d.Delta = append(d.Delta, rd)
	}
	return json.Marshal(d)
}

// ID returns the content-addressed frame id.
func (f *Frame) ID() (string, error) {
	id, _, err := f.Payload()
	return id, err
}

// DecodeDelta parses a delta body into the appended-tuple map keyed by
// relation name. Tuples are decoded with full value fidelity; schema
// validation happens when the caller extends the base database.
func DecodeDelta(body []byte) (*Delta, map[string][]relation.Tuple, error) {
	var d Delta
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, nil, fmt.Errorf("dist: decoding frame delta: %w", err)
	}
	if d.Base == "" {
		return nil, nil, fmt.Errorf("dist: frame delta has no base")
	}
	appends := make(map[string][]relation.Tuple, len(d.Delta))
	for _, rd := range d.Delta {
		tuples := make([]relation.Tuple, len(rd.Rows))
		for i, enc := range rd.Rows {
			t := make(relation.Tuple, len(enc))
			for j, s := range enc {
				v, err := decodeValue(s)
				if err != nil {
					return nil, nil, fmt.Errorf("dist: delta relation %q row %d: %w", rd.Name, i, err)
				}
				t[j] = v
			}
			tuples[i] = t
		}
		appends[rd.Name] = tuples
	}
	return &d, appends, nil
}
