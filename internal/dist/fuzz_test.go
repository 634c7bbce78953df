package dist

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"

	"hyper/internal/relation"
)

// FuzzReadCSVKeyed feeds arbitrary CSV bytes to the upload reader, with no
// key (the synthetic RowID), one declared key or two. Nothing may panic, and
// an accepted upload survives the frame codec — EncodeSnapshot, the JSON
// body a worker receives, Build — with the same rows, kinds and keys. Bytes
// that are not UTF-8 are skipped: an upload arrives inside a JSON string.
func FuzzReadCSVKeyed(f *testing.F) {
	for _, seed := range []struct {
		csv  string
		keys uint8
	}{
		{"Status,Savings,Credit\n0,0,0\n1,0,1\n1,0,1\n", 0}, {"ID,V\n1,a\n2,b\n", 1}, {"ID,V\n1,a\n1,b\n", 1},
		{"ID,V\n1,a\n1,b\n", 2}, {"A,B\n1,x\n2,y\n", 1}, {"RowID,V\n1,a\n", 0}, {"ID,V\n1,2.5\ntrue,NULL\n,héllo\n", 0},
		{"ID,V\nNaN,-0\n+Inf,1e400\n", 1}, {"ID,ID\n1,2\n", 1}, {"ID,V\n\"1\n\",\"s\"\"q\"\n", 2}, {"", 0}, {"ID,V\n1\n", 0},
	} {
		f.Add([]byte(seed.csv), seed.keys)
	}
	f.Fuzz(func(t *testing.T, data []byte, keys uint8) {
		if !utf8.Valid(data) {
			return
		}
		rel, err := relation.ReadCSVKeyed("T", bytes.NewReader(data), [][]string{nil, {"ID"}, {"ID", "V"}}[keys%3])
		if err != nil {
			return
		}
		db := relation.NewDatabase()
		if err := db.Add(rel); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(EncodeSnapshot(db, nil))
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		db2, _, err := snap.Build()
		if err != nil {
			t.Fatalf("an accepted upload does not rebuild: %v", err)
		}
		got := db2.Relation("T")
		if got.Len() != rel.Len() || got.Schema().Len() != rel.Schema().Len() {
			t.Fatalf("%d rows of %d columns rebuilt as %d of %d", rel.Len(), rel.Schema().Len(), got.Len(), got.Schema().Len())
		}
		for c, col := range rel.Schema().Columns() {
			if got.Schema().Col(c) != col {
				t.Fatalf("column %d: %+v rebuilt as %+v", c, col, got.Schema().Col(c))
			}
		}
		for i := range rel.Len() {
			row := rel.Row(i)
			for c, v := range row {
				if w := got.Row(i)[c]; w.Kind() != v.Kind() || w.Key() != v.Key() {
					t.Fatalf("row %d column %d: %v (%s) rebuilt as %v (%s)", i, c, v, v.Kind(), w, w.Kind())
				}
			}
			if got.LookupKey(row) != i {
				t.Fatalf("row %d: its key resolves to row %d of the rebuilt relation", i, got.LookupKey(row))
			}
		}
	})
}
