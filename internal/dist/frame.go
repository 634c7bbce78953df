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

// A frame is the content-addressed, bit-exact serialization of one snapshot
// version of a session's data, and every frame body has one shape: the rows
// its version holds past its parent frame's, per relation in database
// order. A root frame has no parent, so it holds every row, and only a root
// also carries the schemas, the foreign keys and the causal model; a child
// names its parent's id instead, and a worker extends the resident parent by
// the child's rows. Values are tagged scalars, not CSV text, because a CSV
// round-trip re-infers kinds (2.0 -> "2" -> int) and would break the
// bit-identity contract. The id is the sha256 of the body, and a child's body
// names its parent's id, so an id covers the whole version chain: identical
// data has one identity everywhere, and changed data can never alias a
// worker's warm copy.

// frameBody is the wire form of a frame.
type frameBody struct {
	// Parent is the id of the frame this one extends ("" for a root).
	Parent string `json:"parent,omitempty"`
	// Version is the MVCC snapshot version of the frame's database (0 for
	// unversioned instances, omitted on the wire).
	Version   int64           `json:"version,omitempty"`
	Relations []frameRelation `json:"relations"`
	// Root only. The model graph: nodes in insertion order, edges sorted
	// (edge-set semantics; every graph algorithm downstream is
	// order-insensitive).
	ForeignKeys []relation.ForeignKey `json:"foreign_keys,omitempty"`
	HasModel    bool                  `json:"has_model,omitempty"`
	Nodes       []string              `json:"nodes,omitempty"`
	Edges       [][2]string           `json:"edges,omitempty"`
	Cross       []causal.CrossEdge    `json:"cross,omitempty"`
}

// frameRelation is one relation's rows past the parent frame, in insertion
// order (row order is part of the determinism contract: the canonical shard
// plan partitions rows by position), and in a root its schema.
type frameRelation struct {
	Name    string        `json:"name"`
	Columns []frameColumn `json:"columns,omitempty"`
	Rows    [][]string    `json:"rows"`
}

// frameColumn is the wire form of a schema column.
type frameColumn struct {
	Name    string `json:"name"`
	Kind    uint8  `json:"kind"`
	Key     bool   `json:"key,omitempty"`
	Mutable bool   `json:"mutable,omitempty"`
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

// Frame is a lazily encoded snapshot version of a session's data, shared by
// every distributed evaluation against that version. The encoding runs once.
// A frame built with NewFrameDelta encodes only the rows its database holds
// past its parent's, and the shipping path makes the parent resident on a
// worker first.
type Frame struct {
	db     *relation.Database
	model  *causal.Model
	parent *Frame

	once sync.Once
	id   string
	body []byte
	err  error
}

// NewFrame wraps a session's database and model as a root frame. Encoding is
// deferred to the first Payload call.
func NewFrame(db *relation.Database, model *causal.Model) *Frame {
	return &Frame{db: db, model: model}
}

// NewFrameDelta wraps an appended snapshot version as a child of parent: db
// is the full database after the append, extending parent's, so its rows
// past parent's are the appended ones. The child shares parent's model.
func NewFrameDelta(parent *Frame, db *relation.Database) *Frame {
	return &Frame{db: db, model: parent.model, parent: parent}
}

// Payload returns the frame id and canonical JSON body.
func (f *Frame) Payload() (string, []byte, error) {
	f.once.Do(func() {
		raw, err := f.encode()
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

// ID returns the content-addressed frame id.
func (f *Frame) ID() (string, error) {
	id, _, err := f.Payload()
	return id, err
}

// encode renders the frame body: relations in database order, each with its
// rows past the parent's. A child skips the relations that gained no rows.
func (f *Frame) encode() ([]byte, error) {
	b := frameBody{Version: f.db.Version()}
	var parent *relation.Database
	if f.parent != nil {
		id, err := f.parent.ID()
		if err != nil {
			return nil, err
		}
		b.Parent, parent = id, f.parent.db
	} else {
		b.ForeignKeys = f.db.ForeignKeys()
		if f.model != nil {
			b.HasModel = true
			b.Nodes = f.model.Attr.Nodes()
			b.Edges = f.model.Attr.Edges()
			b.Cross = f.model.Cross
		}
	}
	for _, name := range f.db.Names() {
		rel, from := f.db.Relation(name), 0
		fr := frameRelation{Name: name}
		if parent != nil {
			if from = parent.Relation(name).Len(); from == rel.Len() {
				continue
			}
		} else {
			for _, c := range rel.Schema().Columns() {
				fr.Columns = append(fr.Columns, frameColumn{Name: c.Name, Kind: uint8(c.Kind), Key: c.Key, Mutable: c.Mutable})
			}
		}
		fr.Rows = make([][]string, rel.Len()-from)
		for i := range fr.Rows {
			enc := make([]string, rel.Schema().Len())
			for j := range enc {
				enc[j] = encodeValue(rel.Value(from+i, j))
			}
			fr.Rows[i] = enc
		}
		b.Relations = append(b.Relations, fr)
	}
	return json.Marshal(b)
}

// parentMissing is buildFrame's error for a child whose parent frame is not
// resident; the worker answers it with frame_missing.
type parentMissing string

func (id parentMissing) Error() string {
	return fmt.Sprintf("parent frame %.12s not on this worker", string(id))
}

// buildFrame decodes a frame body into the database and model it holds, with
// full value fidelity. A root builds them from its own schemas; a child
// extends the database of the parent frame that parentOf returns (Extend
// shares the parent's relations as frozen prefixes, so queries running
// against the parent are never perturbed) and shares its model.
func buildFrame(body []byte, parentOf func(id string) (*workerFrame, bool)) (*relation.Database, *causal.Model, error) {
	var b frameBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, nil, fmt.Errorf("dist: decoding frame: %w", err)
	}
	rows := make(map[string][]relation.Tuple, len(b.Relations))
	for _, fr := range b.Relations {
		if _, dup := rows[fr.Name]; dup {
			return nil, nil, fmt.Errorf("dist: frame lists relation %q twice", fr.Name)
		}
		tuples := make([]relation.Tuple, len(fr.Rows))
		for i, enc := range fr.Rows {
			t := make(relation.Tuple, len(enc))
			for j, s := range enc {
				v, err := decodeValue(s)
				if err != nil {
					return nil, nil, fmt.Errorf("dist: relation %q row %d: %w", fr.Name, i, err)
				}
				t[j] = v
			}
			tuples[i] = t
		}
		rows[fr.Name] = tuples
	}
	if b.Parent != "" {
		parent, ok := parentOf(b.Parent)
		if !ok {
			return nil, nil, parentMissing(b.Parent)
		}
		db, err := parent.db.Extend(rows)
		if err != nil {
			return nil, nil, err
		}
		if db.Version() != b.Version {
			return nil, nil, fmt.Errorf("dist: frame publishes version %d, but parent %.12s extends to version %d",
				b.Version, b.Parent, db.Version())
		}
		return db, parent.model, nil
	}
	db := relation.NewDatabase()
	db.SetVersion(b.Version)
	for _, fr := range b.Relations {
		cols := make([]relation.Column, len(fr.Columns))
		for i, c := range fr.Columns {
			if relation.Kind(c.Kind) > relation.KindString {
				return nil, nil, fmt.Errorf("dist: relation %q column %q has unknown kind %d", fr.Name, c.Name, c.Kind)
			}
			cols[i] = relation.Column{Name: c.Name, Kind: relation.Kind(c.Kind), Key: c.Key, Mutable: c.Mutable}
		}
		schema, err := relation.NewSchema(cols...)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: relation %q: %w", fr.Name, err)
		}
		rel := relation.NewRelation(fr.Name, schema)
		for i, t := range rows[fr.Name] {
			if err := rel.Insert(t); err != nil {
				return nil, nil, fmt.Errorf("dist: relation %q row %d: %w", fr.Name, i, err)
			}
		}
		if err := db.Add(rel); err != nil {
			return nil, nil, err
		}
	}
	for _, fk := range b.ForeignKeys {
		if err := db.AddForeignKey(fk); err != nil {
			return nil, nil, err
		}
	}
	if !b.HasModel {
		return db, nil, nil
	}
	m := causal.NewModel()
	for _, n := range b.Nodes {
		m.Attr.AddNode(n)
	}
	for _, e := range b.Edges {
		m.Attr.AddEdge(e[0], e[1])
	}
	// Cross edges are assigned directly: their attribute-level edges are
	// already in Edges, and AddCross would record them twice.
	m.Cross = b.Cross
	return db, m, nil
}
