package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation schema.
type Column struct {
	Name    string // attribute name, unique within the relation
	Kind    Kind   // declared kind; KindNull means untyped/any
	Key     bool   // part of the primary key (keys are always immutable)
	Mutable bool   // may change in hypothetical possible worlds
}

// Schema is an ordered list of columns with name-based lookup.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from the given columns. Duplicate or empty
// column names are rejected.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if c.Key && c.Mutable {
			return nil, fmt.Errorf("relation: key column %q cannot be mutable", c.Name)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for literals in
// tests and generators.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of the named column and panics if absent.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("relation: unknown column %q", name))
	}
	return i
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool { _, ok := s.index[name]; return ok }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// KeyIndexes returns the positions of primary-key columns in order.
func (s *Schema) KeyIndexes() []int {
	var out []int
	for i, c := range s.cols {
		if c.Key {
			out = append(out, i)
		}
	}
	return out
}

// String renders the schema as "name kind [key] [mutable], ...".
func (s *Schema) String() string {
	var b strings.Builder
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
		if c.Key {
			b.WriteString(" key")
		}
		if c.Mutable {
			b.WriteString(" mutable")
		}
	}
	return b.String()
}
