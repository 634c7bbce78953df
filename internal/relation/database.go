package relation

import (
	"fmt"
	"strconv"
)

// ForeignKey declares that Child.ChildCol references Parent.ParentCol. HypeR
// uses foreign keys both for USE-view joins and to connect tuples in the
// ground causal graph (a review row depends on its product row).
type ForeignKey struct {
	Child     string // child relation name
	ChildCol  string
	Parent    string // parent relation name
	ParentCol string
}

// Database is a named collection of relations with foreign-key metadata. It
// models the multi-relational instance D of the paper.
type Database struct {
	rels  map[string]*Relation
	order []string
	fks   []ForeignKey
	// version is the MVCC snapshot version of this instance. A freshly
	// built database is version 0, which keeps the pre-MVCC cache identity
	// (nothing is folded into plan fingerprints or view keys); serving
	// layers opt in with SetVersion and every Extend bumps it by one.
	version int64
	// ancestors are the versions this one extends, newest first, at most
	// maxAncestors of them (Ancestors).
	ancestors []Ancestor
}

// Ancestor is a version a database extends, as numbers: its snapshot version
// and, per relation in Names() order, its row count. Those rows are a prefix
// of the same relation in every version extending it, so an artifact derived
// from a version is that version's artifact plus what the rows past it add.
// A database records its ancestors this way rather than by pointer, so a
// version keeps none of the older ones alive.
type Ancestor struct {
	Version int64
	Rows    []int
}

// Tag is the ancestor's version as every cache identity spells it
// (Database.VersionTag).
func (a Ancestor) Tag() string { return versionTag(a.Version) }

// TotalRows returns the ancestor's number of tuples across all relations.
func (a Ancestor) TotalRows() int {
	n := 0
	for _, r := range a.Rows {
		n += r
	}
	return n
}

// maxAncestors bounds the lineage a version records: a cache probes at most
// this many older versions for an artifact to derive from.
const maxAncestors = 16

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Add registers a relation; names must be unique.
func (d *Database) Add(r *Relation) error {
	if _, dup := d.rels[r.Name()]; dup {
		return fmt.Errorf("database: duplicate relation %q", r.Name())
	}
	d.rels[r.Name()] = r
	d.order = append(d.order, r.Name())
	return nil
}

// MustAdd adds a relation and panics on error.
func (d *Database) MustAdd(r *Relation) {
	if err := d.Add(r); err != nil {
		panic(err)
	}
}

// Relation returns the named relation or nil.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// Names returns the relation names in insertion order.
func (d *Database) Names() []string { return append([]string(nil), d.order...) }

// AddForeignKey declares a foreign key after validating that both ends exist.
func (d *Database) AddForeignKey(fk ForeignKey) error {
	c, p := d.rels[fk.Child], d.rels[fk.Parent]
	if c == nil {
		return fmt.Errorf("database: foreign key child relation %q not found", fk.Child)
	}
	if p == nil {
		return fmt.Errorf("database: foreign key parent relation %q not found", fk.Parent)
	}
	if !c.Schema().Has(fk.ChildCol) {
		return fmt.Errorf("database: relation %q has no column %q", fk.Child, fk.ChildCol)
	}
	if !p.Schema().Has(fk.ParentCol) {
		return fmt.Errorf("database: relation %q has no column %q", fk.Parent, fk.ParentCol)
	}
	d.fks = append(d.fks, fk)
	return nil
}

// ForeignKeys returns the declared foreign keys.
func (d *Database) ForeignKeys() []ForeignKey { return append([]ForeignKey(nil), d.fks...) }

// Version returns the database's snapshot version (0 until SetVersion or
// Extend).
func (d *Database) Version() int64 { return d.version }

// VersionTag is the snapshot version as every cache identity spells it:
// "@v<version>", or "" at version 0 so unversioned (bare-library) databases
// keep their historical keys.
func (d *Database) VersionTag() string { return versionTag(d.version) }

func versionTag(v int64) string {
	if v <= 0 {
		return ""
	}
	return "@v" + strconv.FormatInt(v, 10)
}

// Ancestors returns the versions this database extends, newest (its parent)
// first: none for a database that no Extend produced. Callers must not write
// to it.
func (d *Database) Ancestors() []Ancestor { return d.ancestors }

// SetVersion overrides the snapshot version. Serving layers call it once at
// session creation so every published snapshot — including the first — has
// a distinct non-zero identity that caches can fold into their keys.
func (d *Database) SetVersion(v int64) { d.version = v }

// Extend returns a new database with the given tuples appended to the named
// relations and the version bumped by one. Untouched relations are shared by
// pointer (they are frozen prefixes under append-only growth); extended
// relations are Relation.Extend's new versions, which share the old ones'
// storage without writing it, so readers holding the old version are never
// perturbed.
func (d *Database) Extend(appends map[string][]Tuple) (*Database, error) {
	self := Ancestor{Version: d.version, Rows: make([]int, len(d.order))}
	for i, name := range d.order {
		self.Rows[i] = d.rels[name].Len()
	}
	out := &Database{
		rels:      make(map[string]*Relation, len(d.rels)),
		order:     append([]string(nil), d.order...),
		fks:       append([]ForeignKey(nil), d.fks...),
		version:   d.version + 1,
		ancestors: append([]Ancestor{self}, d.ancestors[:min(len(d.ancestors), maxAncestors-1)]...),
	}
	for name, r := range d.rels {
		out.rels[name] = r
	}
	for name, tuples := range appends {
		r := d.rels[name]
		if r == nil {
			return nil, fmt.Errorf("database: cannot append to unknown relation %q", name)
		}
		ext, err := r.Extend(tuples)
		if err != nil {
			return nil, err
		}
		out.rels[name] = ext
	}
	return out, nil
}

// TotalRows returns the number of tuples across all relations.
func (d *Database) TotalRows() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}
