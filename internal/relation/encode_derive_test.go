package relation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestEncodedDerivesFromAncestor holds every version's encoding, and that of
// the same rows inserted into a fresh relation, to the fresh encoding
// builder the one builder replaced (refEncode), codes and rows bit for bit,
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
				var want encoding
				fresh.Coded(ci).refEncode(&want)
				for build, col := range map[string]*CodedColumn{"derived": c, "fresh": fresh.Coded(ci)} {
					col.Encoded()
					for what, got := range map[string][2][]float64{"rows": {col.enc.rows, want.rows}, "codes": {col.enc.byCode, want.byCode}} {
						if len(got[0]) != len(got[1]) {
							t.Fatalf("seed %d column %d: %s encoding has %d %s, want %d", seed, ci, build, len(got[0]), what, len(got[1]))
						}
						for i := range got[1] {
							if math.Float64bits(got[0][i]) != math.Float64bits(got[1][i]) {
								t.Fatalf("seed %d column %d: %s encoding of %s %d is %v, want %v", seed, ci, build, what, i, got[0][i], got[1][i])
							}
						}
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
