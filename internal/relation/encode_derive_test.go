package relation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestEncodedDerivesFromAncestor holds every version's Encoded to the
// encoding of the same rows inserted into a fresh relation, bit for bit,
// along random chains of Extends in which some versions are encoded and some
// are not. Numeric columns gain values (NULL, -0, NaN, new integers) and so
// derive with new codes; the string column sometimes gains a value, which
// shifts the ranks of the values it had and must encode afresh.
func TestEncodedDerivesFromAncestor(t *testing.T) {
	schema := MustSchema(
		Column{Name: "K", Kind: KindInt, Key: true},
		Column{Name: "I", Kind: KindInt},
		Column{Name: "F", Kind: KindFloat},
		Column{Name: "S", Kind: KindString},
	)
	derived, newString := 0, 0
	for seed := range int64(40) {
		rng := rand.New(rand.NewSource(seed))
		key, strs := 0, 3
		row := func() Tuple {
			key++
			i := Int(int64(rng.Intn(5)))
			if rng.Intn(9) == 0 {
				i = Null
			}
			f := []Value{Float(0.5), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(float64(rng.Intn(4))), Null}[rng.Intn(5)]
			if rng.Intn(12) == 0 {
				strs++
			}
			return Tuple{Int(int64(key)), i, f, String(fmt.Sprint("s", rng.Intn(strs)))}
		}
		var rows []Tuple
		rel := NewRelation("T", schema)
		for range 1 + rng.Intn(20) {
			rows = append(rows, row())
			rel.MustInsert(rows[len(rows)-1]...)
		}
		for range 10 {
			var batch []Tuple
			for range 1 + rng.Intn(6) {
				batch = append(batch, row())
			}
			before := rel.Coded(3).Card()
			next, err := rel.Extend(batch)
			if err != nil {
				t.Fatal(err)
			}
			rel, rows = next, append(rows, batch...)
			fresh := NewRelation("T", schema)
			for _, r := range rows {
				fresh.MustInsert(r...)
			}
			for ci := range schema.Len() {
				if rng.Intn(3) == 0 {
					continue // this version's column stays unencoded
				}
				c := rel.Coded(ci)
				if a := c.enc.ancestor(); a != nil && len(a.rows) < c.rows() {
					derived++
					if ci == 3 && c.Card() != before {
						newString++
					}
				}
				got, want := c.Encoded(), fresh.Coded(ci).Encoded()
				if len(got) != len(want) {
					t.Fatalf("seed %d column %d: %d encoded rows, want %d", seed, ci, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d column %d row %d: encoded %v, fresh %v", seed, ci, i, got[i], want[i])
					}
				}
				if c.enc.from.Load() != nil {
					t.Fatalf("seed %d column %d: a built encoding still points at its ancestor", seed, ci)
				}
			}
		}
	}
	if derived == 0 || newString == 0 {
		t.Fatalf("%d encodings had an ancestor, %d with a new string: the chains must exercise both", derived, newString)
	}
}
