package relation

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
)

// keyParityValues covers every place Value.Key() merges or separates values:
// the kinds, the zeros, NaN payloads, infinities, whole floats up to and past
// the edges of int64's range, ints past float64's 2⁵³ precision beside their
// nearest floats, and strings whose first byte collides with a kind tag.
func keyParityValues() []Value {
	nanPayload := math.Float64frombits(0x7ff8000000000abc)
	negNaN := math.Float64frombits(0xfff8000000000001)
	vs := []Value{
		Null,
		Bool(false), Bool(true),
		Int(0), Int(1), Int(-1), Int(5), Int(42), Int(math.MaxInt64), Int(math.MinInt64), Int(math.MinInt64 + 1),
		Int(999999999999999), Int(1000000000000000), Int(-1000000000000000), Int(1 << 53), Int(1<<53 + 1),
		Int(1e16), Int(1e16 + 1), Int(-1e16),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1), Float(5), Float(42), Float(0.5), Float(-0.5),
		Float(math.NaN()), Float(nanPayload), Float(negNaN),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(999999999999999), Float(1e15), Float(-1e15), Float(1e15 + 2), Float(1 << 53), Float(1e16), Float(-1e16),
		Float(1 << 63), Float(-(1 << 63)), Float(math.Nextafter(1<<63, 0)), Float(math.Nextafter(-(1 << 63), math.Inf(-1))),
		Float(1e300), Float(-1e300), Float(4503599627370495.5),
		Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64),
		String(""), String("a"), String("0"), String("42"), String("t"), String("f"), String("NaN"),
	}
	for _, tag := range []string{"\x00", "\x01", "\x02", "\x03", "\x04"} {
		vs = append(vs, String(tag), String(tag+"t"), String(tag+"0"), String(tag+"42"))
	}
	return vs
}

// codeAt returns the code of row i at whichever width the column stores.
func codeAt(c *CodedColumn, i int) uint32 { return storedCode(&c.codes, i) }

// storedCode reads row i of s from whichever slice holds it, apart from At.
func storedCode(s *Codes, i int) uint32 {
	if s.wide != nil {
		return s.wide[i]
	}
	return uint32(s.narrow[i])
}

// checkKeyParity asserts the one identity of values: Compare finds a and b
// equal exactly when their typed keys match, exactly when their Key()
// strings do, and Compare is antisymmetric.
func checkKeyParity(t *testing.T, a, b Value) {
	t.Helper()
	if got, want := keyOf(a) == keyOf(b), a.Key() == b.Key(); got != want {
		t.Fatalf("typed keys of %#v and %#v equal = %v, Key() strings equal = %v", a, b, got, want)
	}
	if got, want := a.Compare(b) == 0, a.Key() == b.Key(); got != want {
		t.Fatalf("Compare(%#v, %#v) = %d, but Key() strings equal = %v", a, b, a.Compare(b), want)
	}
	if ab, ba := a.Compare(b), b.Compare(a); ab != -ba {
		t.Fatalf("Compare(%#v, %#v) = %d but Compare(%#v, %#v) = %d", a, b, ab, b, a, ba)
	}
}

// checkTransitive asserts that Compare orders every triple of vs
// consistently: a <= b and b <= c imply a <= c, strictly when either step is
// strict.
func checkTransitive(t *testing.T, vs []Value) {
	t.Helper()
	for _, a := range vs {
		for _, b := range vs {
			ab := a.Compare(b)
			if ab > 0 {
				continue
			}
			for _, c := range vs {
				bc := b.Compare(c)
				if bc > 0 {
					continue
				}
				want := 0
				if ab < 0 || bc < 0 {
					want = -1
				}
				if ac := a.Compare(c); ac != want {
					t.Fatalf("Compare: %#v vs %#v = %d, %#v vs %#v = %d, but %#v vs %#v = %d",
						a, b, ab, b, c, bc, a, c, ac)
				}
			}
		}
	}
}

func TestValueKeyParity(t *testing.T) {
	vs := keyParityValues()
	for _, a := range vs {
		for _, b := range vs {
			checkKeyParity(t, a, b)
		}
	}
	checkTransitive(t, vs)
}

// TestValueTotalOrder pins where Compare puts the values the order is
// decided at: NaN is one value above +Inf, the zeros are one value, and an
// int and a float compare by exact value, past 2⁵³ and at the ends of
// int64's range.
func TestValueTotalOrder(t *testing.T) {
	nan, otherNaN := Float(math.NaN()), Float(math.Float64frombits(0xfff8000000000abc))
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{nan, otherNaN, 0},
		{nan, Int(5), 1},
		{nan, Float(math.Inf(1)), 1},
		{nan, Int(math.MaxInt64), 1},
		{nan, String(""), -1},
		{nan, Null, 1},
		{Float(math.Inf(-1)), Int(math.MinInt64), -1},
		{Float(math.Copysign(0, -1)), Float(0), 0},
		{Float(math.Copysign(0, -1)), Int(0), 0},
		{Int(1<<53 + 1), Float(1 << 53), 1},
		{Int(1e16), Float(1e16), 0},
		{Int(1e16 + 1), Float(1e16), 1},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-(1 << 63)), 0},
		{Int(math.MinInt64 + 1), Float(-(1 << 63)), 1},
		{Int(2), Float(2.5), -1},
		{Int(-2), Float(-2.5), 1},
		{Int(-3), Float(-2.5), -1},
		{Bool(true), Int(0), -1},
		{Null, Bool(false), -1},
	} {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%#v, %#v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Compare(tc.a); got != -tc.want {
			t.Errorf("Compare(%#v, %#v) = %d, want %d", tc.b, tc.a, got, -tc.want)
		}
	}
}

func fuzzValue(kind uint8, i int64, fbits uint64, s string) Value {
	switch kind % 5 {
	case 0:
		return Null
	case 1:
		return Bool(i&1 == 1)
	case 2:
		return Int(i)
	case 3:
		return Float(math.Float64frombits(fbits))
	default:
		return String(s)
	}
}

// FuzzColumnKeyParity holds the column store's interning to Value.Key()
// identity and that identity to Value.Compare: for two arbitrary values —
// and the int/float/sign relatives of each, which is where Key() merges —
// typed keys agree with key strings, Compare finds two values equal exactly
// when their keys match, Compare is antisymmetric and transitive over every
// triple, and a column holding them all assigns two one code exactly when
// their keys match.
func FuzzColumnKeyParity(f *testing.F) {
	add := func(a, b Value) {
		f.Add(uint8(a.kind), a.i, math.Float64bits(a.f), a.s, uint8(b.kind), b.i, math.Float64bits(b.f), b.s)
	}
	vs := keyParityValues()
	for i, a := range vs {
		add(a, vs[(i*7+3)%len(vs)])
	}
	nanA, nanB := Float(math.NaN()), Float(math.Float64frombits(0xfff8000000000abc))
	for _, p := range [][2]Value{
		{nanA, Int(5)}, {nanB, Int(5)}, {nanA, nanB},
		{Float(0), Float(math.Copysign(0, -1))},
		{Float(math.Inf(1)), Float(math.Inf(-1))},
		{Int(1<<53 + 1), Float(1 << 53)},
		{Int(1e16), Float(1e16)},
		{Float(1 << 63), Int(math.MaxInt64)},
		{Int(math.MinInt64), Float(-(1 << 63))},
	} {
		add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, sa string, kb uint8, ib int64, fb uint64, sb string) {
		a, b := fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb)
		relatives := func(v Value) []Value {
			out := []Value{v}
			switch v.kind {
			case KindInt:
				out = append(out, Float(float64(v.i)))
			case KindFloat:
				out = append(out, Float(-v.f), Int(int64(v.f)), Float(math.Trunc(v.f)))
			}
			return out
		}
		all := append(relatives(a), relatives(b)...)
		rel := NewRelation("T", MustSchema(Column{Name: "ID", Key: true}, Column{Name: "V"}))
		for i, v := range all {
			rel.MustInsert(Int(int64(i)), v)
		}
		col := rel.Coded(1)
		checkTransitive(t, all)
		for i, x := range all {
			for j, y := range all {
				checkKeyParity(t, x, y)
				if got, want := codeAt(col, i) == codeAt(col, j), x.Key() == y.Key(); got != want {
					t.Fatalf("rows %#v and %#v share a code = %v, share a Key() = %v", x, y, got, want)
				}
			}
			if code, ok := col.Code(x); !ok || code != codeAt(col, i) {
				t.Fatalf("Code(%#v) = %d,%v, want the row's code %d", x, code, ok, codeAt(col, i))
			}
		}
		if want := holdsValuesExactly(col, all); col.Exact != want {
			t.Fatalf("Exact = %v over %#v, want %v", col.Exact, all, want)
		}
	})
}

// holdsValuesExactly is the oracle of CodedColumn.Exact: every row's value
// equals its code's entry in Values field by field, floats by their bits.
func holdsValuesExactly(c *CodedColumn, rows []Value) bool {
	for i, v := range rows {
		w := c.Values[codeAt(c, i)]
		if v.kind != w.kind || v.i != w.i || math.Float64bits(v.f) != math.Float64bits(w.f) || v.s != w.s {
			return false
		}
	}
	return true
}

func TestCodedExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		vals []Value
		want bool
	}{
		{"ints with repeats and nulls", []Value{Int(3), Null, Int(3), Int(0), Null, Int(0)}, true},
		{"strings and bools", []Value{String("a"), Bool(true), String("a"), Bool(true), Bool(false)}, true},
		{"repeated floats", []Value{Float(2.5), Float(3), Float(2.5), Float(3), Float(negZero), Float(negZero)}, true},
		{"one NaN payload", []Value{Float(math.NaN()), Float(math.NaN())}, true},
		{"signed zeros", []Value{Float(0), Float(1), Float(negZero)}, false},
		{"int zero and negative zero", []Value{Int(0), Float(negZero)}, false},
		{"int and whole float", []Value{Int(3), Int(4), Float(3)}, false},
		{"two NaN payloads", []Value{Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000abc))}, false},
	} {
		rel := NewRelation("T", MustSchema(Column{Name: "ID", Key: true}, Column{Name: "V"}))
		for i, v := range tc.vals {
			rel.MustInsert(Int(int64(i)), v)
		}
		c := rel.Coded(1)
		if c.Exact != tc.want || c.Exact != holdsValuesExactly(c, tc.vals) {
			t.Errorf("%s: Exact = %v, want %v", tc.name, c.Exact, tc.want)
		}
	}
}

func TestCodedColumn(t *testing.T) {
	rel := NewRelation("T", MustSchema(Column{Name: "ID", Key: true}, Column{Name: "V"}, Column{Name: "S"}))
	vals := []Value{Int(3), Null, Float(3), Float(-2.5), Int(7), Null, Float(math.NaN())}
	for i, v := range vals {
		rel.MustInsert(Int(int64(i)), v, String("s"))
	}
	c := rel.Coded(1)
	wantCodes := []uint32{0, 1, 0, 2, 3, 1, 4} // first-seen order, Int(3) ≡ Float(3), NULL its own code
	for i, want := range wantCodes {
		if codeAt(c, i) != want {
			t.Fatalf("row %d: code %d, want %v", i, codeAt(c, i), wantCodes)
		}
	}
	if c.Card() != 4 || c.Nulls != 2 || !c.Numeric || c.Min != -2.5 || c.Max != 7 {
		t.Errorf("summary = card %d nulls %d numeric %v min %v max %v",
			c.Card(), c.Nulls, c.Numeric, c.Min, c.Max)
	}
	if len(c.Values) != 5 || !c.Values[1].IsNull() || c.Values[2].AsFloat() != -2.5 {
		t.Errorf("values %v", c.Values)
	}
	if _, ok := c.Code(Int(8)); ok {
		t.Error("Code found a value no row holds")
	}
	if s := rel.Coded(2); s.Numeric || s.Card() != 1 || s.Min != 0 || s.Max != 0 {
		t.Errorf("string column summary = %+v", s)
	}

	// Columns are the relation's storage: an extension appends to its own
	// version of them and never to the parent's, and an insert into the
	// parent afterwards reaches neither the extension nor its columns.
	ext, err := rel.Extend([]Tuple{{Int(100), Int(9), String("s")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ext.Coded(1); codeAt(got, len(vals)) != uint32(len(got.Values)-1) || got.Max != 9 || ext.Len() != len(vals)+1 {
		t.Errorf("extended column: last row code %d of %d values, max %v", codeAt(got, len(vals)), len(got.Values), got.Max)
	}
	if rel.Coded(1) != c || c.Max != 7 || len(c.Values) != 5 || rel.Len() != len(vals) {
		t.Errorf("Extend changed the parent's column: max %v, %d values, %d rows", c.Max, len(c.Values), rel.Len())
	}
	rel.MustInsert(Int(200), Int(60), String("s"))
	if rel.Coded(1).Max != 60 || ext.Coded(1).Max != 9 || ext.Len() != len(vals)+1 {
		t.Errorf("insert after Extend: parent max %v, extension max %v with %d rows", rel.Coded(1).Max, ext.Coded(1).Max, ext.Len())
	}
	if ext.Value(len(vals), 1).AsInt() != 9 || rel.Value(len(vals), 1).AsInt() != 60 {
		t.Errorf("row %d reads %v in the extension and %v in the parent", len(vals), ext.Value(len(vals), 1), rel.Value(len(vals), 1))
	}
}

// TestCodedWidths drives row codes across the one-byte limit — the 257th
// distinct code widens the codes already stored — through every way they are
// written: Insert, an in-place Relation.Extend fork and a copying sibling,
// and the Codes store's Append, Set and grown copy. Each holds the codes of
// row i%distinct at the width they need, and a version or copy made before
// the widening still reads its own narrow codes. Encoded and Narrow give the
// same answers at both widths.
func TestCodedWidths(t *testing.T) {
	const rows, split = 1000, 200 // split: the rows before the extension
	for _, distinct := range []int{256, 257, 300} {
		check := func(how string, s *Codes, n int) {
			t.Helper()
			if wide := min(n, distinct) > 256; s.Len() != n || (s.wide != nil) != wide || (s.wide == nil) == (s.narrow == nil) {
				t.Fatalf("%d distinct values, %s: %d rows, wide=%v narrow=%v", distinct, how, s.Len(), s.wide != nil, s.narrow != nil)
			}
			for i := range n {
				if storedCode(s, i) != uint32(i%distinct) || s.At(i) != uint32(i%distinct) {
					t.Fatalf("%d distinct values, %s, row %d: code %d (At %d)", distinct, how, i, storedCode(s, i), s.At(i))
				}
			}
		}
		schema := MustSchema(Column{Name: "ID", Key: true}, Column{Name: "V"})
		tuples := make([]Tuple, rows)
		for i := range tuples {
			tuples[i] = Tuple{Int(int64(i)), Int(int64(i % distinct))}
		}
		rel, base := NewRelation("T", schema), NewRelation("T", schema)
		for i, tu := range tuples {
			rel.MustInsert(tu...)
			if i < split {
				base.MustInsert(tu...)
			}
		}
		c := rel.Coded(1)
		check("Insert", &c.codes, rows)
		ext, err := base.Extend(tuples[split:]) // the first extension: in place
		if err != nil {
			t.Fatal(err)
		}
		sibling, err := base.Extend(tuples[split:]) // the second copies
		if err != nil {
			t.Fatal(err)
		}
		check("in-place Extend", &ext.Coded(1).codes, rows)
		check("sibling Extend", &sibling.Coded(1).codes, rows)
		check("Extend's parent", &base.Coded(1).codes, split)

		var appended, prefix Codes
		set := prefix.Grow(rows) // the empty store grown: narrow zeros
		for i := range rows {
			appended.Append(uint32(i % distinct))
			set.Set(i, uint32(i%distinct))
			if i < split {
				prefix.Append(uint32(i % distinct))
			}
		}
		grown := prefix.Grow(rows)
		for i := split; i < rows; i++ {
			grown.Set(i, uint32(i%distinct))
		}
		check("Append", &appended, rows)
		check("Set", &set, rows)
		check("grown copy", &grown, rows)
		check("grown copy's source", &prefix, split)

		keep := make([]bool, len(c.Values))
		for code := range keep {
			keep[code] = code%3 == 0
		}
		got := c.Encoded() // an int column: every row's own value
		on := make([]bool, rows)
		for i := range on {
			on[i] = i%2 == 0
		}
		c.Narrow(keep, on)
		for i := 0; i < rows; i++ {
			code := i % distinct // first-seen order
			if got[i] != float64(code) || on[i] != (i%2 == 0 && code%3 == 0) {
				t.Fatalf("%d distinct values, row %d: encoded %v set %v", distinct, i, got[i], on[i])
			}
		}
	}
}

// TestCodedSingleFlight: concurrent first readers of a column's encoding
// share one build. Run under -race.
func TestCodedSingleFlight(t *testing.T) {
	rel := NewRelation("T", MustSchema(Column{Name: "ID", Key: true}, Column{Name: "V"}))
	for i := 0; i < 2000; i++ {
		rel.MustInsert(Int(int64(i)), String(fmt.Sprint(i%17)))
	}
	const n = 8
	got := make([][]float64, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = rel.Coded(1).Encoded()
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < n; g++ {
		if &got[g][0] != &got[0][0] {
			t.Fatalf("goroutine %d got its own build", g)
		}
	}
}

// domainByRowScan is Domain as it was before it read the column's projection:
// the last row holding a key represents it.
func domainByRowScan(r *Relation, col string) map[string]Value {
	ci := r.schema.MustIndex(col)
	seen := make(map[string]Value)
	for i := range r.Len() {
		v := r.Value(i, ci)
		seen[v.Key()] = v
	}
	return seen
}

func sameValueBits(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s && math.Float64bits(a.f) == math.Float64bits(b.f)
}

// TestDomainMatchesRowScan holds Domain to the row scan it replaced — one
// representative per key, the last row's, to the bit — over exact and inexact
// columns, NULLs included, and shows the inexact ones tell the two ends apart:
// there the projection's own first-row values are not the answer.
func TestDomainMatchesRowScan(t *testing.T) {
	negZero, nanB := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000abc)
	for _, tc := range []struct {
		name  string
		exact bool
		vals  []Value
	}{
		{"ints with NULLs", true, []Value{Int(3), Null, Int(1), Int(3), Int(2), Null, Int(1)}},
		{"strings and bools", true, []Value{String("b"), Bool(true), String("a"), String("b"), Bool(false), Null}},
		{"Int 3 beside Float 3.0", false, []Value{Int(3), Int(1), Float(3), Float(1.5), Int(1)}},
		{"Float 3.0 beside Int 3", false, []Value{Float(3), Int(1), Int(3)}},
		{"signed zeros", false, []Value{Float(0), Float(1), Float(negZero), Null}},
		{"NaN payloads", false, []Value{Float(math.NaN()), Float(2), Float(nanB)}},
		{"every key relative", false, append(keyParityValues(), keyParityValues()...)},
		{"empty", true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRelation("T", MustSchema(Column{Name: "ID", Kind: KindInt, Key: true}, Column{Name: "C"}))
			for i, v := range tc.vals {
				r.MustInsert(Int(int64(i)), v)
			}
			cc := r.Coded(1)
			if cc.Exact != tc.exact {
				t.Fatalf("Exact = %v, want %v", cc.Exact, tc.exact)
			}
			want := domainByRowScan(r, "C")
			got := r.Domain("C")
			if len(got) != len(want) {
				t.Fatalf("%d values, the row scan has %d", len(got), len(want))
			}
			for i, v := range got {
				if w, ok := want[v.Key()]; !ok || !sameValueBits(v, w) {
					t.Errorf("Domain holds %#v, the row scan %#v under that key", v, w)
				}
				if i > 0 && v.Compare(got[i-1]) < 0 {
					t.Errorf("Domain is not sorted at %d: %v after %v", i, v, got[i-1])
				}
			}
			firstEnd := true // the projection's first-row values would do
			for _, v := range cc.Values {
				firstEnd = firstEnd && sameValueBits(v, want[v.Key()])
			}
			if firstEnd != tc.exact {
				t.Errorf("first-row representatives match the row scan = %v on a column with Exact = %v: the case cannot tell the ends apart", firstEnd, tc.exact)
			}
		})
	}
}

// TestEncodeMatchesKeyRanks holds CodedColumn.Encode and Encoded to the rule
// ml.Encoder applied per estimator set before the column owned it: numbers
// pass through a numeric column (NULL 0, a bool 0/1), and elsewhere a value is
// the rank of its Key() among the column's sorted non-null keys, -1 when the
// column holds none.
func TestEncodeMatchesKeyRanks(t *testing.T) {
	probes := append(keyParityValues(), String("zzz"), Int(7), Float(2.5))
	for name, vals := range map[string][]Value{
		"numeric":     {Int(3), Float(2.5), Null, Int(-1), Float(3), Float(math.Inf(1)), Int(3)},
		"categorical": {String("b"), String("a"), Null, Int(3), Bool(true), String("b"), Float(0.5), Bool(false)},
		"bools":       {Bool(true), Bool(false), Bool(true)},
		"all NULL":    {Null, Null},
		"empty":       nil,
		"every key":   keyParityValues(),
	} {
		r := NewRelation("T", MustSchema(Column{Name: "ID", Kind: KindInt, Key: true}, Column{Name: "C"}))
		numeric := true
		ranks := map[string]float64{}
		for i, v := range vals {
			r.MustInsert(Int(int64(i)), v)
			if !v.IsNull() {
				numeric = numeric && v.Kind().Numeric()
				ranks[v.Key()] = 0
			}
		}
		keys := make([]string, 0, len(ranks))
		for k := range ranks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			ranks[k] = float64(i)
		}
		want := func(v Value) float64 {
			if numeric {
				switch {
				case v.IsNull():
					return 0
				case v.Kind() == KindBool && v.AsBool():
					return 1
				case v.Kind() == KindBool:
					return 0
				}
				return v.AsFloat()
			}
			if c, ok := ranks[v.Key()]; ok {
				return c
			}
			return -1
		}
		cc := r.Coded(1)
		for _, v := range append(probes, vals...) {
			if got, w := cc.Encode(v), want(v); math.Float64bits(got) != math.Float64bits(w) && !(got != got && w != w) {
				t.Errorf("%s: Encode(%#v) = %v, the key-rank rule gives %v", name, v, got, w)
			}
		}
		enc := cc.Encoded()
		if len(enc) != len(vals) {
			t.Fatalf("%s: %d encoded rows for %d", name, len(enc), len(vals))
		}
		for i, v := range vals {
			// A row reads its code's first-seen value: alike up to the sign of
			// zero and a NaN's payload, which == and the NaN test erase.
			if w := want(v); enc[i] != w && !(enc[i] != enc[i] && w != w) {
				t.Errorf("%s: row %d (%#v) encodes %v, the key-rank rule gives %v", name, i, v, enc[i], w)
			}
		}
		if len(enc) > 0 && &enc[0] != &cc.Encoded()[0] {
			t.Errorf("%s: Encoded built a second column", name)
		}
	}
}
