package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"hyper/internal/engine"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// FuzzEvalResponseDecode holds the eval reply codec to two properties. Any
// bytes, read as a reply body, either fail to decode or decode to no more
// floats and codes than the body holds, and never panic, nor does merging
// what they decode to. Any reply the encoder renders — partials cut from the
// same bytes read as float64 bits, so NaN payloads, ±0, ±Inf and subnormals
// come through, as block windows or as rows coded at both code widths —
// decodes to the same Meta, Spans, Meter, shard ids, windows, codes and float
// bits, while the body cut short by one byte, one byte longer or with a
// foreign magic is refused. The hostile seeds, among them a code at or past
// its class count, codes that overrun the body and a format 1 body, are
// refused.
func FuzzEvalResponseDecode(f *testing.F) {
	bits := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	floatSeeds := [][]byte{
		bits(0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0x7ff4000000000000), // NaN payloads, signalling too
		bits(0, 0x8000000000000000, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))),
		bits(1, 0x000fffffffffffff, 0x800fffffffffffff, 0x8000000000000001), // subnormals
		bits(math.Float64bits(1), math.Float64bits(2.5), math.Float64bits(-3)),
		nil, // empty partials
	}
	for _, fl := range floatSeeds {
		for _, parts := range []uint8{0, 1, 3, 5, 7} { // zero partials, one, several; windows, then coded rows
			f.Add(fl, parts)
			if body, err := encodeEvalReply(fuzzReply(fl, parts)); err == nil {
				f.Add(body, parts)
			}
		}
	}
	headerOf := func(magic, h string) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(h))), h...)
	}
	header := func(h string) []byte { return headerOf("HPE\x02", h) }
	const coded = `{"meta":{"rows_own_blocks":true},"partials":[{"shard":0,"n":1,"width":%d,"rows":%d}]}`
	for _, hostile := range [][]byte{
		[]byte("HPE\x03\x00\x00\x00\x00"),                // a future format version
		headerOf("HPE\x01", `{"meta":{},"partials":[]}`), // format 1
		binary.LittleEndian.AppendUint32([]byte("HPE\x02"), math.MaxUint32),
		header(`{"meta":{},"partials":[{"shard":0,"min_block":0,"n":1000000000000}]}`),
		header(`{"meta":{},"partials":[{"shard":0,"min_block":0,"n":-1}]}`),
		append(header(`{"meta":{"blocks":1},"partials":[{"shard":0,"min_block":0,"n":1}]}`), bits(1)...), // short float section
		append(header(`{"meta":{},"partials":[]}`), 0),                                                   // trailing byte
		append(header(fmt.Sprintf(coded, 1, 2)), append(bits(1, 1), 0, 1)...),                            // code 1 of 1 class
		append(header(fmt.Sprintf(coded, 2, 1)), append(bits(1, 1), 1, 0)...),                            // 2-byte code 1 of 1 class
		append(header(fmt.Sprintf(coded, 1, 3)), append(bits(1, 1), 0, 0)...),                            // codes overrun the body
		append(header(fmt.Sprintf(coded, 2, 1<<40)), bits(1, 1)...),                                      // and far past it
		append(header(fmt.Sprintf(coded, 1, -1)), bits(1, 1)...),
		append(header(fmt.Sprintf(coded, 3, 1)), append(bits(1, 1), 0, 0, 0)...),                                            // 3-byte codes
		append(header(fmt.Sprintf(coded, 0, 1)), append(bits(1, 1), 0)...),                                                  // codes of no width
		append(header(`{"meta":{"blocks":1},"partials":[{"shard":0,"n":1,"width":1,"rows":1}]}`), append(bits(1, 1), 0)...), // codes where blocks span rows
	} {
		if _, err := decodeEvalReply(hostile); err == nil {
			f.Fatalf("hostile body %q decoded", hostile)
		}
		f.Add(hostile, uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		if resp, err := decodeEvalReply(data); err == nil {
			size := 0
			for _, p := range resp.Partials {
				size += 8*(len(p.Sum)+len(p.Cnt)) + len(p.Codes)
			}
			if size > len(data) {
				t.Fatalf("a %d-byte body decoded to %d bytes of floats and codes", len(data), size)
			}
			_, _ = engine.MergePartials(resp.Meta, resp.Partials) // must not panic
		}

		want := fuzzReply(data, parts)
		body, err := encodeEvalReply(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeEvalReply(body)
		if err != nil {
			t.Fatalf("the encoder's own reply does not decode: %v", err)
		}
		if !reflect.DeepEqual(got.Meta, want.Meta) || !reflect.DeepEqual(got.Spans, want.Spans) || !reflect.DeepEqual(got.Meter, want.Meter) {
			t.Fatalf("header changed in transit:\n got %+v %+v %+v\nwant %+v %+v %+v", got.Meta, got.Spans, got.Meter, want.Meta, want.Spans, want.Meter)
		}
		if len(got.Partials) != len(want.Partials) {
			t.Fatalf("%d partials decoded from %d", len(got.Partials), len(want.Partials))
		}
		for i, w := range want.Partials {
			g := got.Partials[i]
			if g.Shard != w.Shard || g.MinBlock != w.MinBlock || g.Width != w.Width || !bytes.Equal(g.Codes, w.Codes) ||
				!sameBits(g.Sum, w.Sum) || !sameBits(g.Cnt, w.Cnt) {
				t.Fatalf("partial %d: %+v decoded as %+v", i, w, g)
			}
		}
		foreign := append([]byte(nil), body...)
		foreign[3]++
		for name, bad := range map[string][]byte{
			"cut short": body[:len(body)-1], "one byte longer": append(body[:len(body):len(body)], 0), "foreign magic": foreign,
		} {
			if _, err := decodeEvalReply(bad); err == nil {
				t.Fatalf("a reply %s decoded", name)
			}
		}
	})
}

// fuzzReply builds an eval reply whose floats are data read as float64 bits,
// cut into parts%4 partials of even length (sums, then counts). Without
// parts&4 they are block windows, each from its first float's index. With
// it, they are rows that are their own blocks, coded against the partial's
// classes: one row per byte of data, whose code is the byte modulo the class
// count, in 1-byte codes for an even partial and 2-byte codes for an odd one.
// A partial of no classes holds no rows.
func fuzzReply(data []byte, parts uint8) *EvalResponse {
	vals := make([]float64, len(data)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	rows := parts&4 != 0
	resp := &EvalResponse{
		PartialResult: engine.PartialResult{Meta: engine.PartialMeta{
			Plan: int(parts%4) + 1, Blocks: len(vals), Agg: "avg", Backdoor: []string{"T.X"}, EstimatorUsed: "freq", ViewRows: len(data),
			RowsOwnBlocks: rows,
		}},
		Spans: &obs.SpanJSON{Name: "eval", StartUnixUs: int64(len(data)), DurMs: 0.25,
			Attrs: map[string]any{"shards": float64(parts), "error": false}, Children: []*obs.SpanJSON{{Name: "eval_shards"}}},
		Meter: &obs.MeterJSON{StagesMs: map[string]float64{"eval_shards": 0.5}, ShardsRun: uint64(parts)},
	}
	n := int(parts % 4)
	for i := range n {
		from := i * len(vals) / n
		chunk := vals[from : (i+1)*len(vals)/n]
		half := len(chunk) / 2
		p := engine.ShardPartial{Shard: i}
		if half > 0 {
			p.Sum, p.Cnt = chunk[:half], chunk[half:2*half]
		}
		switch {
		case !rows:
			p.MinBlock = from
		case half > 0:
			p.Width = 1 + i%2
			for _, b := range data {
				if code := uint16(int(b) % half); p.Width == 1 {
					p.Codes = append(p.Codes, byte(code))
				} else {
					p.Codes = binary.LittleEndian.AppendUint16(p.Codes, code)
				}
			}
		}
		resp.Partials = append(resp.Partials, p)
	}
	return resp
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzReadCSVKeyed feeds arbitrary CSV bytes to the upload reader, with no
// key (the synthetic RowID), one declared key or two. Nothing may panic, and
// an accepted upload survives the frame codec — the root frame body a
// worker receives, and buildFrame — with the same rows, kinds and keys. Bytes
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
		_, body, err := NewFrame(db, nil).Payload()
		if err != nil {
			t.Fatal(err)
		}
		db2, _, err := buildFrame(body, nil)
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

// FuzzFrameBody feeds arbitrary bytes, under their true sha256 id, to the
// frame upload of a worker with an empty store and of one holding a root
// frame, the one input a peer hands a worker unasked. Nothing may panic, and
// every upload a worker accepts stores a frame whose database survives the
// codec: encoded again as a root and rebuilt, it holds the same relations,
// schemas, rows, kinds, value keys and key lookups.
func FuzzFrameBody(f *testing.F) {
	db, appends := deltaBase(f)
	root := NewFrame(db, nil)
	rootID, rootBody, err := root.Payload()
	if err != nil {
		f.Fatal(err)
	}
	db2, err := db.Extend(appends)
	if err != nil {
		f.Fatal(err)
	}
	_, childBody, err := NewFrameDelta(root, db2).Payload()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rootBody)
	f.Add(childBody)
	f.Add(bytes.Replace(childBody, []byte(rootID), []byte(strings.Repeat("0", len(rootID))), 1)) // its parent is nowhere
	f.Add([]byte(`{"relations":[{"name":"T","columns":[{"name":"A","kind":2}],"rows":[["i1"]]},{"name":"T","columns":[{"name":"A","kind":2}],"rows":[]}]}`))
	f.Add([]byte(`{"relations":[{"name":"T","columns":[{"name":"A","kind":5}],"rows":[["_"],["i1"]]}]}`))
	f.Add([]byte(`{"parent":"` + rootID + `","version":2,"relations":[{"name":"T","rows":[["i1","d1","sa"]]},{"name":"T","rows":[]}]}`))

	put := func(w *Worker, id string, body []byte) int {
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, pathFrames+id, bytes.NewReader(body)))
		return rec.Code
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		id := hex.EncodeToString(sum[:])
		holding := NewWorker(WorkerConfig{})
		if code := put(holding, rootID, rootBody); code != http.StatusOK {
			t.Fatalf("the root frame was refused: %d", code)
		}
		for _, w := range []*Worker{NewWorker(WorkerConfig{}), holding} {
			if put(w, id, body) != http.StatusOK {
				continue
			}
			stored, ok := w.frames.Get(id)
			if !ok {
				t.Fatal("an accepted frame is not in the store")
			}
			_, again, err := NewFrame(stored.db, stored.model).Payload()
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, _, err := buildFrame(again, nil)
			if err != nil {
				t.Fatalf("a stored frame does not rebuild from its own encoding: %v", err)
			}
			sameDatabase(t, stored.db, rebuilt)
		}
	})
}

// sameDatabase fails unless b holds a's relations in a's order, with the same
// schemas and, row by row, the same value kinds and keys, each row's key
// resolving to the same row.
func sameDatabase(t *testing.T, a, b *relation.Database) {
	t.Helper()
	if !reflect.DeepEqual(a.Names(), b.Names()) || a.Version() != b.Version() {
		t.Fatalf("relations %v at v%d rebuilt as %v at v%d", a.Names(), a.Version(), b.Names(), b.Version())
	}
	for _, name := range a.Names() {
		ra, rb := a.Relation(name), b.Relation(name)
		if ra.Len() != rb.Len() || !reflect.DeepEqual(ra.Schema().Columns(), rb.Schema().Columns()) {
			t.Fatalf("%s: %d rows of %+v rebuilt as %d of %+v", name, ra.Len(), ra.Schema().Columns(), rb.Len(), rb.Schema().Columns())
		}
		for i := range ra.Len() {
			row := ra.Row(i)
			for c, v := range row {
				if w := rb.Value(i, c); w.Kind() != v.Kind() || w.Key() != v.Key() {
					t.Fatalf("%s row %d column %d: %v (%s) rebuilt as %v (%s)", name, i, c, v, v.Kind(), w, w.Kind())
				}
			}
			if ka, kb := ra.LookupKey(row), rb.LookupKey(row); ka != kb {
				t.Fatalf("%s row %d: its key resolves to row %d, and to row %d once rebuilt", name, i, ka, kb)
			}
		}
	}
}
