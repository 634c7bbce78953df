// Package relation implements the typed relational substrate HypeR runs on:
// values, schemas, tuples, relations, and multi-relation databases with
// primary keys and foreign keys. It deliberately implements set semantics
// with explicit tuple identifiers, matching the notation of Section 2 of the
// paper.
package relation

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindNull represents SQL NULL and compares less
// than every other value.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind can participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a compact tagged union holding one database value. The zero Value
// is NULL. Values are immutable; all operations return new Values.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the NULL value.
var Null = Value{}

// Bool returns a boolean Value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind returns the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload. It is false for non-bool values.
func (v Value) AsBool() bool { return v.kind == KindBool && v.i != 0 }

// AsInt returns the value as an int64, truncating floats and parsing bools as
// 0/1. It returns 0 for strings and NULL.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i
	case KindFloat:
		return int64(v.f)
	default:
		return 0
	}
}

// AsFloat returns the value as a float64. Ints and bools widen; strings and
// NULL yield NaN so that accidental arithmetic is detectable.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt, KindBool:
		return float64(v.i)
	default:
		return math.NaN()
	}
}

// AsString returns the string payload for string values and a formatted
// representation otherwise.
func (v Value) AsString() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// String formats the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// Equal reports whether two values are equal. Numeric values compare across
// int/float kinds; NULL equals only NULL, and NaN equals only NaN.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare is the total order on values: NULL < bool < number < string across
// kinds. Numbers compare by exact value, an int against a float without
// rounding either through the other; -0 equals +0, and NaN (every payload
// alike) is one value above every other number, as in PostgreSQL. It returns
// -1, 0 or +1, and 0 exactly when the two values share a Key.
func (v Value) Compare(o Value) int {
	if v.kind == KindFloat && o.kind == KindFloat { // first: a float column's range scan
		return cmpFloat(v.f, o.f)
	}
	vr, or := v.rank(), o.rank()
	if vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindString:
		return strings.Compare(v.s, o.s)
	case v.kind == KindBool, v.kind == KindInt && o.kind == KindInt:
		return cmp.Compare(v.i, o.i)
	case v.kind == KindInt: // against a float
		return -cmpFloatInt(o.f, v.i)
	default: // a float against an int
		return cmpFloatInt(v.f, o.i)
	}
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

// cmpFloat is cmp.Compare with NaN above every other float, not below.
func cmpFloat(a, b float64) int {
	c := cmp.Compare(a, b)
	if a != a || b != b {
		return -c
	}
	return c
}

// cmpFloatInt compares float f with int i exactly: a whole f inside int64's
// range converts without loss, and its fraction settles a tie on the whole
// part.
func cmpFloatInt(f float64, i int64) int {
	switch {
	case f != f || f >= twoTo63:
		return 1
	case f < -twoTo63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(int64(t), i); c != 0 {
		return c
	}
	return cmpFloat(f, t)
}

// twoTo63 is 2⁶³: every float in [-2⁶³, 2⁶³) truncates to an int64 exactly.
const twoTo63 = 1 << 63

// wholeInt reports whether f is a whole number inside int64's range, the
// floats that share their int's Key.
func wholeInt(f float64) bool {
	return f == math.Trunc(f) && f >= -twoTo63 && f < twoTo63
}

// Key returns a canonical comparable representation usable as a map key: two
// values share a Key exactly when Compare finds them equal. A whole float in
// int64's range takes its int's key; every NaN shares one key.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindBool:
		if v.i != 0 {
			return "\x01t"
		}
		return "\x01f"
	case KindInt:
		return "\x02" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		if wholeInt(v.f) {
			return "\x02" + strconv.FormatInt(int64(v.f), 10)
		}
		return "\x03" + strconv.FormatFloat(v.f, 'b', -1, 64)
	default:
		return "\x04" + v.s
	}
}

// Add returns v + o for numeric values; the result is an int when both
// operands are ints, otherwise a float. Non-numeric operands yield NULL.
func (v Value) Add(o Value) Value { return arith(v, o, '+') }

// Sub returns v - o under the same promotion rules as Add.
func (v Value) Sub(o Value) Value { return arith(v, o, '-') }

// Mul returns v * o under the same promotion rules as Add.
func (v Value) Mul(o Value) Value { return arith(v, o, '*') }

// Div returns v / o as a float; division by zero yields NULL.
func (v Value) Div(o Value) Value {
	if !v.kind.Numeric() || !o.kind.Numeric() {
		return Null
	}
	d := o.AsFloat()
	if d == 0 {
		return Null
	}
	return Float(v.AsFloat() / d)
}

func arith(v, o Value, op byte) Value {
	if !v.kind.Numeric() || !o.kind.Numeric() {
		return Null
	}
	if v.kind == KindInt && o.kind == KindInt {
		switch op {
		case '+':
			return Int(v.i + o.i)
		case '-':
			return Int(v.i - o.i)
		default:
			return Int(v.i * o.i)
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch op {
	case '+':
		return Float(a + b)
	case '-':
		return Float(a - b)
	default:
		return Float(a * b)
	}
}

// Parse converts a textual token into the most specific Value: empty string
// or "NULL" becomes NULL, then bool, int, float, finally string.
func Parse(s string) Value {
	switch s {
	case "", "NULL", "null":
		return Null
	case "true", "TRUE", "True":
		return Bool(true)
	case "false", "FALSE", "False":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	return String(s)
}

// Coerce converts v to the requested kind when a lossless or standard lossy
// (float→int truncation, numeric→string formatting) conversion exists. It
// returns NULL when no conversion applies.
func Coerce(v Value, k Kind) Value {
	if v.kind == k {
		return v
	}
	switch k {
	case KindNull:
		return Null
	case KindBool:
		if v.kind.Numeric() {
			return Bool(v.AsFloat() != 0)
		}
	case KindInt:
		if v.kind.Numeric() || v.kind == KindBool {
			return Int(v.AsInt())
		}
		if v.kind == KindString {
			if i, err := strconv.ParseInt(v.s, 10, 64); err == nil {
				return Int(i)
			}
		}
	case KindFloat:
		if v.kind.Numeric() || v.kind == KindBool {
			return Float(v.AsFloat())
		}
		if v.kind == KindString {
			if f, err := strconv.ParseFloat(v.s, 64); err == nil {
				return Float(f)
			}
		}
	case KindString:
		return String(v.String())
	}
	return Null
}
