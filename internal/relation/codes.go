package relation

import (
	"math"
	"slices"
)

// Codes is the one store of row codes, a CodedColumn's and any other kept
// per row: a byte per row while every code is below 256, four bytes per row
// once one is not (then wide is set, else narrow). Append and Set widen the
// rows so far at the first code past a byte. The zero Codes is empty.
type Codes struct {
	narrow []uint8
	wide   []uint32
}

// hold makes c wide enough for code: the widening rule, written once.
func (c *Codes) hold(code uint32) {
	if c.wide != nil || code <= math.MaxUint8 {
		return
	}
	c.wide = make([]uint32, len(c.narrow), cap(c.narrow))
	for j, b := range c.narrow {
		c.wide[j] = uint32(b)
	}
	c.narrow = nil
}

// At returns the code of row i.
func (c *Codes) At(i int) uint32 {
	if c.wide != nil {
		return c.wide[i]
	}
	return uint32(c.narrow[i])
}

// Len returns the number of rows.
func (c *Codes) Len() int { return max(len(c.narrow), len(c.wide)) }

// Append adds a row holding code.
func (c *Codes) Append(code uint32) {
	c.hold(code)
	if c.wide != nil {
		c.wide = append(c.wide, code)
	} else {
		c.narrow = append(c.narrow, uint8(code))
	}
}

// Set stores code at row i, which must be below Len.
func (c *Codes) Set(i int, code uint32) {
	c.hold(code)
	if c.wide != nil {
		c.wide[i] = code
	} else {
		c.narrow[i] = uint8(code)
	}
}

// Grow returns a copy of c holding n rows, c's first and then zeros, at c's
// width.
func (c *Codes) Grow(n int) Codes {
	if c.wide != nil {
		return Codes{wide: append(make([]uint32, 0, n), c.wide...)[:n]}
	}
	return Codes{narrow: append(make([]uint8, 0, n), c.narrow...)[:n]}
}

// Clip returns c without spare capacity: an Append to it copies c's rows.
func (c *Codes) Clip() Codes {
	return Codes{narrow: slices.Clip(c.narrow), wide: slices.Clip(c.wide)}
}

// AddCodes adds table[c] to dst[i] for each i, where c is the code of row
// rows[i].
func (c *Codes) AddCodes(dst []uint64, rows []int, table []uint64) {
	if c.wide != nil {
		addCodes(c.wide, dst, rows, table)
	} else {
		addCodes(c.narrow, dst, rows, table)
	}
}

func addCodes[C uint8 | uint32](codes []C, dst []uint64, rows []int, table []uint64) {
	for i, r := range rows {
		dst[i] += table[codes[r]]
	}
}

// Narrow clears set[i] for every row i whose code has keep[code] false.
func (c *Codes) Narrow(keep, set []bool) {
	if c.wide != nil {
		narrow(c.wide, keep, set)
	} else {
		narrow(c.narrow, keep, set)
	}
}

func narrow[C uint8 | uint32](codes []C, keep, set []bool) {
	for i, code := range codes {
		set[i] = set[i] && keep[code]
	}
}

// Gather returns the codes remap[c.At(r)] - 1 of the rows r of rows. Given
// in first-seen order, as Gather of a column renumbers them, they widen
// where an Insert of those rows would.
func (c *Codes) Gather(rows []int32, remap []uint32) Codes {
	out := Codes{narrow: make([]uint8, 0, len(rows))}
	for _, r := range rows {
		out.Append(remap[c.At(int(r))] - 1)
	}
	return out
}
