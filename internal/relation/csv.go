package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// WriteCSV writes the relation as CSV with a header row.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.schema.Names()); err != nil {
		return err
	}
	rec := make([]string, r.schema.Len())
	for row := range r.n {
		for i := range rec {
			if v := r.Value(row, i); v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the relation to the named file.
func (r *Relation) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadCSV reads a relation from CSV. The first row is the header. Column
// kinds are inferred from the first non-null occurrence of each column when
// schema is nil; otherwise the provided schema is used (its names must match
// the header).
func ReadCSV(name string, rd io.Reader, schema *Schema) (*Relation, error) {
	header, records, err := readCSVRecords(name, rd)
	if err != nil {
		return nil, err
	}
	if schema == nil {
		cols := make([]Column, len(header))
		for i, h := range header {
			cols[i] = Column{Name: h, Kind: inferKind(records, i), Mutable: true}
		}
		schema, err = NewSchema(cols...)
		if err != nil {
			return nil, err
		}
	} else {
		if schema.Len() != len(header) {
			return nil, fmt.Errorf("csv %s: header arity %d != schema arity %d", name, len(header), schema.Len())
		}
		for i, h := range header {
			if schema.Col(i).Name != h {
				return nil, fmt.Errorf("csv %s: header column %d is %q, schema has %q", name, i, h, schema.Col(i).Name)
			}
		}
	}
	r := NewRelation(name, schema)
	for _, rec := range records {
		t := make(Tuple, len(rec))
		for i, s := range rec {
			t[i] = Parse(s)
		}
		if err := r.Insert(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// readCSVRecords parses the header and data rows of a CSV stream.
func readCSVRecords(name string, rd io.Reader) (header []string, records [][]string, err error) {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = false
	header, err = cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("csv %s: reading header: %w", name, err)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("csv %s: %w", name, err)
		}
		records = append(records, rec)
	}
	return header, records, nil
}

// ReadCSVKeyed reads a relation from CSV with an inferred schema, marking
// the named header columns as the primary key. With no keys, a synthetic
// RowID int key column is prepended so duplicate data rows are legal (a
// plain ReadCSV relation uses the whole tuple as its key and rejects
// duplicates). The serving layer uses this for uploaded databases.
func ReadCSVKeyed(name string, rd io.Reader, keys []string) (*Relation, error) {
	header, records, err := readCSVRecords(name, rd)
	if err != nil {
		return nil, err
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		cols[i] = Column{Name: h, Kind: inferKind(records, i), Mutable: true}
	}
	synthetic := len(keys) == 0
	if synthetic {
		for _, c := range cols {
			if c.Name == "RowID" {
				return nil, fmt.Errorf("csv %s: header has a RowID column; declare it (or another column) as the key", name)
			}
		}
		cols = append([]Column{{Name: "RowID", Kind: KindInt, Key: true}}, cols...)
	} else {
		isKey := make(map[string]bool, len(keys))
		for _, k := range keys {
			isKey[k] = true
		}
		found := 0
		for i := range cols {
			if isKey[cols[i].Name] {
				cols[i].Key = true
				cols[i].Mutable = false
				found++
			}
		}
		if found != len(isKey) {
			return nil, fmt.Errorf("csv %s: key columns %v are not all in the header", name, keys)
		}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	r := NewRelation(name, schema)
	for ri, rec := range records {
		t := make(Tuple, 0, len(cols))
		if synthetic {
			t = append(t, Int(int64(ri)))
		}
		for _, s := range rec {
			t = append(t, Parse(s))
		}
		if err := r.Insert(t); err != nil {
			return nil, fmt.Errorf("csv %s: %w", name, err)
		}
	}
	return r, nil
}

// ParseAppendRows parses CSV rows (header + data) destined to extend r,
// returning tuples ready for Extend — r itself is not modified. The header
// must name r's columns in schema order, with one exception: when r's first
// column is a synthetic RowID key (ReadCSVKeyed with no declared keys) the
// header omits it and RowIDs are assigned sequentially from r.Len()+offset
// (offset covers rows already staged for the same extension). Values are
// parsed with the same inference as ReadCSV; kind coercion and key
// uniqueness are enforced by Extend.
func (r *Relation) ParseAppendRows(rd io.Reader, offset int) ([]Tuple, error) {
	header, records, err := readCSVRecords(r.name, rd)
	if err != nil {
		return nil, err
	}
	names := r.schema.Names()
	want := names
	synthetic := len(names) > 0 && names[0] == "RowID" && r.schema.Col(0).Key &&
		len(header) == len(names)-1
	if synthetic {
		want = names[1:]
	}
	if len(header) != len(want) {
		return nil, fmt.Errorf("csv %s: append header arity %d != schema arity %d", r.name, len(header), len(want))
	}
	for i, h := range header {
		if h != want[i] {
			return nil, fmt.Errorf("csv %s: append header column %d is %q, schema has %q", r.name, i, h, want[i])
		}
	}
	next := int64(r.Len() + offset)
	tuples := make([]Tuple, 0, len(records))
	for _, rec := range records {
		t := make(Tuple, 0, len(names))
		if synthetic {
			t = append(t, Int(next))
			next++
		}
		for _, s := range rec {
			t = append(t, Parse(s))
		}
		tuples = append(tuples, t)
	}
	return tuples, nil
}

// LoadCSV reads a relation from the named file with an inferred schema.
func LoadCSV(name, path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(name, f, nil)
}

func inferKind(records [][]string, col int) Kind {
	kind := KindNull
	for _, rec := range records {
		if col >= len(rec) {
			continue
		}
		v := Parse(rec[col])
		if v.IsNull() {
			continue
		}
		switch {
		case kind == KindNull:
			kind = v.Kind()
		case kind == KindInt && v.Kind() == KindFloat:
			kind = KindFloat
		case kind != v.Kind() && !(kind == KindFloat && v.Kind() == KindInt):
			return KindString // mixed kinds fall back to string
		}
	}
	return kind
}
