package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRelationExtendCopyOnWrite(t *testing.T) {
	base, err := ReadCSVKeyed("T", strings.NewReader("ID,V\n1,a\n2,b\n5,e\n"), []string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := base.Extend([]Tuple{{Int(3), String("c")}})
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := base.Extend([]Tuple{{Int(3), String("s")}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != 3 || grown.Len() != 4 || sibling.Len() != 4 {
		t.Fatalf("lens = %d, %d, %d, want 3, 4, 4", base.Len(), grown.Len(), sibling.Len())
	}
	// The first extension appends to the base's column storage in place
	// (past the base's rows, in spare capacity); a sibling copies it.
	for ci := range base.Schema().Len() {
		b, g, s := base.Coded(ci), grown.Coded(ci), sibling.Coded(ci)
		if &b.Values[0] != &g.Values[0] || &b.codes.narrow[0] != &g.codes.narrow[0] {
			t.Fatalf("column %d storage not shared", ci)
		}
		if &b.codes.narrow[0] == &s.codes.narrow[0] {
			t.Fatalf("column %d storage shared by two extensions", ci)
		}
	}
	if grown.Value(3, 1).AsString() != "c" || sibling.Value(3, 1).AsString() != "s" {
		t.Errorf("appended rows read %v and %v", grown.Row(3), sibling.Row(3))
	}
	// Key lookups resolve in both; the new key only in the extension.
	if grown.LookupKey(Tuple{Int(3)}) < 0 {
		t.Error("extended relation should find the appended key")
	}
	if base.LookupKey(Tuple{Int(3)}) >= 0 {
		t.Error("base relation must not see the appended key")
	}
	// Duplicate key and arity violations are rejected.
	if _, err := grown.Extend([]Tuple{{Int(1), String("dup")}}); err == nil {
		t.Error("duplicate key should fail")
	}
	if _, err := grown.Extend([]Tuple{{Int(9)}}); err == nil {
		t.Error("wrong arity should fail")
	}
}

// TestExtendSharing: two extensions of one parent, each extended once more,
// run while readers of the parent and of every extension read all they can.
// The first extension of a relation appends into the storage past its rows
// and the second copies; neither may write what another reader reads
// (-race), and each version sees exactly its own rows — the two append
// different codes and values at the same positions.
func TestExtendSharing(t *testing.T) {
	schema := MustSchema(Column{Name: "ID", Kind: KindInt, Key: true}, Column{Name: "V"}, Column{Name: "S", Kind: KindString})
	parent := NewRelation("T", schema)
	row := func(version, i int) Tuple {
		if i < 1000 {
			version = 0
		}
		v := Int(int64(i % 7)) // a code the parent has ...
		if version > 0 && (i+version)%2 == 0 {
			v = Int(int64(version*10_000 + i)) // ... or one of the version's own
		}
		return Tuple{Int(int64(i)), v, String(fmt.Sprint(version, "/", i%5))}
	}
	for i := 0; i < 1000; i++ {
		parent.MustInsert(row(0, i)...)
	}
	batch := func(version, from, n int) []Tuple {
		out := make([]Tuple, n)
		for j := range out {
			out[j] = row(version, from+j)
		}
		return out
	}
	read := func(r *Relation, version, n int) error {
		if r.Len() != n {
			return fmt.Errorf("version %d: %d rows, want %d", version, r.Len(), n)
		}
		for i := 0; i < n; i++ {
			want := row(version, i)
			for c, v := range want {
				if got := r.Value(i, c); !sameValueBits(got, v) {
					return fmt.Errorf("version %d row %d column %d: %v, want %v", version, i, c, got, v)
				}
			}
			if got := r.LookupKey(want); got != i {
				return fmt.Errorf("version %d: key of row %d resolves to %d", version, i, got)
			}
		}
		if enc := r.Coded(1).Encoded(); len(enc) != n {
			return fmt.Errorf("version %d: %d encoded rows", version, len(enc))
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	start := make(chan struct{})
	for version := 1; version <= 2; version++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			child, err := parent.Extend(batch(version, 1000, 100))
			if err != nil {
				errs <- err
				return
			}
			var inner sync.WaitGroup
			inner.Add(1)
			go func() {
				defer inner.Done()
				for range 3 {
					if err := read(child, version, 1100); err != nil {
						errs <- err
						return
					}
				}
			}()
			grandchild, err := child.Extend(batch(version, 1100, 50))
			if err == nil {
				err = read(grandchild, version, 1150)
			}
			if err != nil {
				errs <- err
			}
			inner.Wait()
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 3 {
				if err := read(parent, 0, 1000); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDatabaseExtendVersions(t *testing.T) {
	rel, err := ReadCSVKeyed("T", strings.NewReader("ID,V\n1,a\n"), []string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.Add(rel); err != nil {
		t.Fatal(err)
	}
	db.SetVersion(1)
	v2, err := db.Extend(map[string][]Tuple{"T": {{Int(2), String("b")}}})
	if err != nil {
		t.Fatal(err)
	}
	if db.Version() != 1 || v2.Version() != 2 {
		t.Fatalf("versions = %d, %d, want 1, 2", db.Version(), v2.Version())
	}
	if db.Relation("T").Len() != 1 || v2.Relation("T").Len() != 2 {
		t.Fatalf("rows = %d, %d, want 1, 2", db.Relation("T").Len(), v2.Relation("T").Len())
	}
	// Unknown relation and key conflicts surface as errors, not partial state.
	if _, err := db.Extend(map[string][]Tuple{"Nope": {{Int(1)}}}); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := v2.Extend(map[string][]Tuple{"T": {{Int(2), String("dup")}}}); err == nil {
		t.Error("duplicate key should fail")
	}
}

func TestParseAppendRowsSyntheticRowID(t *testing.T) {
	base, err := ReadCSVKeyed("T", strings.NewReader("A,B\n1,x\n2,y\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Appended CSVs carry only the data columns; RowID continues from
	// Len()+offset so two batches in one request never collide.
	rows, err := base.ParseAppendRows(strings.NewReader("A,B\n3,z\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 2 {
		t.Fatalf("rows = %v, want one row with RowID 2", rows)
	}
	more, err := base.ParseAppendRows(strings.NewReader("A,B\n4,w\n5,v\n"), len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 2 || more[0][0].AsInt() != 3 || more[1][0].AsInt() != 4 {
		t.Fatalf("second batch = %v, want RowIDs 3 and 4", more)
	}
	grown, err := base.Extend(append(rows, more...))
	if err != nil {
		t.Fatal(err)
	}
	if grown.Len() != 5 {
		t.Fatalf("grown len = %d, want 5", grown.Len())
	}
	// Header must match the schema's data columns exactly.
	if _, err := base.ParseAppendRows(strings.NewReader("B,A\n1,2\n"), 0); err == nil {
		t.Error("reordered header should fail")
	}
	if _, err := base.ParseAppendRows(strings.NewReader("A\n1\n"), 0); err == nil {
		t.Error("missing column should fail")
	}
}

func TestParseAppendRowsExplicitKeys(t *testing.T) {
	base, err := ReadCSVKeyed("T", strings.NewReader("ID,V\n1,a\n"), []string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	// With a natural key the appended CSV carries every column, including
	// the key itself — no synthetic numbering.
	rows, err := base.ParseAppendRows(strings.NewReader("ID,V\n7,b\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 7 {
		t.Fatalf("rows = %v, want one row with ID 7", rows)
	}
}

// FuzzParseAppendRows feeds arbitrary CSV bytes and a staging offset to
// ParseAppendRows over a relation with a declared key and one with the
// synthetic RowID key. Nothing may panic; an accepted batch names exactly
// the schema's columns; and Extend either refuses the tuples — leaving
// the base as it was — or returns the relation that inserting the base's
// rows and then the batch's records one by one builds: same rows, same
// kinds, same key index.
func FuzzParseAppendRows(f *testing.F) {
	for _, seed := range []struct {
		csv    string
		offset uint8
	}{
		{"ID,V,W\n7,b,2.5\n", 0}, {"ID,V,W\n1,dup,0\n", 0}, {"ID,V,W\nx,b,2\n", 0}, {"ID,V,W\n8,9,true\n8,c,1\n", 0},
		{"V,W\nz,3\n", 0}, {"V,W\nz,3\nw,4\n", 1}, {"V,W\n\"q,\"\"r\",NULL\n", 200}, {"W,V\n1,2\n", 0}, {"V\n1\n", 0},
		{"V,W\n1\n", 0}, {"", 0}, {"V,W\n\"open,3\n", 0}, {"RowID,V,W\n9,z,3\n", 0},
	} {
		f.Add([]byte(seed.csv), seed.offset)
	}
	f.Fuzz(func(t *testing.T, data []byte, offset uint8) {
		for _, base := range []struct {
			csv  string
			keys []string
		}{
			{"ID,V,W\n1,a,0.5\n2,b,1.5\n", []string{"ID"}},
			{"V,W\nx,1\ny,2\n", nil},
		} {
			rel, err := ReadCSVKeyed("T", strings.NewReader(base.csv), base.keys)
			if err != nil {
				t.Fatal(err)
			}
			tuples, err := rel.ParseAppendRows(bytes.NewReader(data), int(offset))
			if err != nil {
				continue
			}
			recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
			if err != nil || len(recs) != len(tuples)+1 {
				t.Fatalf("%d tuples accepted from CSV that encoding/csv reads as %d records (%v)", len(tuples), len(recs), err)
			}
			// A RowID-keyed relation numbers the rows itself when the header
			// leaves RowID out, and takes the caller's RowIDs when it is there.
			names := rel.Schema().Names()
			synthetic := base.keys == nil && len(recs[0]) == len(names)-1
			if synthetic {
				names = names[1:]
			}
			if strings.Join(recs[0], "\x00") != strings.Join(names, "\x00") {
				t.Fatalf("accepted header %q for columns %q", recs[0], names)
			}

			want := NewRelation("T", rel.Schema())
			for i := range rel.Len() {
				want.MustInsert(rel.Row(i)...)
			}
			var wantErr error
			for i, rec := range recs[1:] {
				var row Tuple
				if synthetic {
					row = append(row, Int(int64(rel.Len()+int(offset)+i)))
				}
				for _, field := range rec {
					row = append(row, Parse(field))
				}
				if wantErr = want.Insert(row); wantErr != nil {
					break
				}
			}
			grown, err := rel.Extend(tuples)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("Extend: %v; row by row: %v", err, wantErr)
			}
			if rel.Len() != 2 || rel.LookupKey(rel.Row(1)) != 1 {
				t.Fatal("the base relation changed")
			}
			if err != nil {
				continue
			}
			if grown.Len() != want.Len() {
				t.Fatalf("extended to %d rows, row by row %d", grown.Len(), want.Len())
			}
			for i := range want.Len() {
				row := want.Row(i)
				for c, v := range row {
					if g := grown.Row(i)[c]; g.Kind() != v.Kind() || g.Key() != v.Key() {
						t.Fatalf("row %d column %d: extended %v (%s), row by row %v (%s)", i, c, g, g.Kind(), v, v.Kind())
					}
				}
				if grown.LookupKey(row) != i {
					t.Fatalf("row %d: key resolves to row %d of the extension", i, grown.LookupKey(row))
				}
			}
		}
	})
}
