package relation

import "sort"

// refEncode is the fresh encoding builder as encode was before a fresh
// encoding became a derivation from the empty one, kept verbatim as the
// oracle of the one builder: e over every code and row of c.
func (c *CodedColumn) refEncode(e *encoding) {
	e.byCode = make([]float64, len(c.Values))
	keys := make([]string, len(c.Values))
	var ranked []int // the codes Key() ranks: a non-numeric column's non-null values
	for code, v := range c.Values {
		switch {
		case c.Numeric:
			e.byCode[code] = c.Encode(v)
		case v.IsNull():
			e.byCode[code] = -1
		default:
			keys[code], ranked = v.Key(), append(ranked, code)
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return keys[ranked[i]] < keys[ranked[j]] })
	for rank, code := range ranked {
		e.byCode[code] = float64(rank)
	}
	e.rows = make([]float64, c.rows())
	for i := range e.rows {
		e.rows[i] = e.byCode[c.At(i)]
	}
}
