// Package types defines the SQL value system shared by every layer of the
// engine: typed scalar values, rows, schemas, and the comparison/hashing
// semantics that storage, execution, and the wire protocol all agree on.
package types

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Type identifies the SQL type of a Value.
type Type uint8

// The SQL types supported by the engine.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt   // 64-bit signed integer (covers INT and BIGINT)
	TypeFloat // 64-bit IEEE float (DOUBLE)
	TypeString
	TypeTimestamp // microseconds since the Unix epoch, timezone-free
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOLEAN"
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeTimestamp:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps a SQL type name to a Type. It accepts the usual synonyms
// (INT, INTEGER, BIGINT, DOUBLE, REAL, TEXT, ...).
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return TypeFloat, nil
	case "VARCHAR", "TEXT", "STRING", "CHAR":
		return TypeString, nil
	case "TIMESTAMP", "DATETIME":
		return TypeTimestamp, nil
	default:
		return TypeNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a compact tagged union holding one SQL scalar. The zero Value is
// SQL NULL. Values are immutable; all methods are safe for concurrent use.
//
// A FLOAT keeps its IEEE-754 bits in i, so every Value is 32 bytes (type
// tag, one word, one string header) and rows, index keys and parameter
// slices carry no field that only one type uses. Struct equality (==,
// reflect.DeepEqual) therefore compares float bits: -0 and +0 differ and
// identical NaNs match. SQL equality is Compare/Equal.
type Value struct {
	typ Type
	i   int64 // Bool (0/1), Int, Timestamp; Float as math.Float64bits
	s   string
}

// fl returns the FLOAT payload stored in i.
func (v Value) fl() float64 { return math.Float64frombits(uint64(v.i)) }

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{typ: TypeBool, i: i}
}

// NewInt returns a BIGINT value.
func NewInt(i int64) Value { return Value{typ: TypeInt, i: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{typ: TypeFloat, i: int64(math.Float64bits(f))} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{typ: TypeString, s: s} }

// NewTimestamp returns a TIMESTAMP value from microseconds since the epoch.
func NewTimestamp(usec int64) Value { return Value{typ: TypeTimestamp, i: usec} }

// Type reports the value's SQL type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// Bool returns the boolean payload. It panics if the value is not a BOOLEAN.
func (v Value) Bool() bool {
	if v.typ != TypeBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.typ))
	}
	return v.i != 0
}

// Int returns the integer payload. It panics unless the value is a BIGINT
// or TIMESTAMP.
func (v Value) Int() int64 {
	if v.typ != TypeInt && v.typ != TypeTimestamp {
		panic(fmt.Sprintf("types: Int() on %s value", v.typ))
	}
	return v.i
}

// Float returns the float payload, widening BIGINT if necessary. It panics
// on non-numeric values.
func (v Value) Float() float64 {
	switch v.typ {
	case TypeFloat:
		return v.fl()
	case TypeInt, TypeTimestamp:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("types: Float() on %s value", v.typ))
	}
}

// Str returns the string payload. It panics if the value is not a VARCHAR.
func (v Value) Str() string {
	if v.typ != TypeString {
		panic(fmt.Sprintf("types: Str() on %s value", v.typ))
	}
	return v.s
}

// Timestamp returns the timestamp payload in microseconds since the epoch.
func (v Value) Timestamp() int64 {
	if v.typ != TypeTimestamp {
		panic(fmt.Sprintf("types: Timestamp() on %s value", v.typ))
	}
	return v.i
}

// IsNumeric reports whether the value is BIGINT or FLOAT.
func (v Value) IsNumeric() bool { return v.typ == TypeInt || v.typ == TypeFloat }

// IsTrue reports whether the value is the boolean TRUE. NULL is not true.
func (v Value) IsTrue() bool { return v.typ == TypeBool && v.i != 0 }

// String renders the value as it would appear in query output.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.fl(), 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeTimestamp:
		return strconv.FormatInt(v.i, 10) + "us"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.typ))
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted and escaped).
func (v Value) SQLLiteral() string {
	if v.typ == TypeString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Compare defines the total order used by indexes and ORDER BY:
// NULL < BOOL < numerics < VARCHAR < TIMESTAMP, with BIGINT and FLOAT
// comparing by numeric value. It returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	vr, or := v.rank(), o.rank()
	if vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch v.typ {
	case TypeNull:
		return 0
	case TypeBool, TypeTimestamp:
		return cmpInt(v.i, o.i)
	case TypeInt:
		if o.typ == TypeFloat {
			return cmpFloat(float64(v.i), o.fl())
		}
		return cmpInt(v.i, o.i)
	case TypeFloat:
		if o.typ == TypeInt {
			return cmpFloat(v.fl(), float64(o.i))
		}
		return cmpFloat(v.fl(), o.fl())
	case TypeString:
		return strings.Compare(v.s, o.s)
	default:
		return 0
	}
}

// rank groups types into comparison classes; BIGINT and FLOAT share a class.
func (v Value) rank() int {
	switch v.typ {
	case TypeNull:
		return 0
	case TypeBool:
		return 1
	case TypeInt, TypeFloat:
		return 2
	case TypeString:
		return 3
	case TypeTimestamp:
		return 4
	default:
		return 5
	}
}

// Equal reports whether two values compare equal (NULL equals NULL here;
// SQL three-valued logic is applied by the expression evaluator, not by
// storage).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaNs sort before everything else so the order stays total.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return -1
	default:
		return 1
	}
}

var hashSeed = maphash.MakeSeed()

// Hash returns a hash consistent with Compare: values that compare equal
// hash equal (in particular BIGINT 2 and FLOAT 2.0).
func (v Value) Hash() uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	switch v.typ {
	case TypeNull:
		h.WriteByte(0)
	case TypeBool:
		h.WriteByte(1)
		h.WriteByte(byte(v.i))
	case TypeInt, TypeFloat:
		// Hash the float64 representation so 2 and 2.0 collide.
		h.WriteByte(2)
		f := v.Float()
		switch {
		case f == math.Trunc(f) && !math.IsInf(f, 0) && f >= -1e15 && f <= 1e15:
			writeUint64(&h, uint64(int64(f)))
		case math.IsNaN(f): // every NaN compares equal, whatever its payload bits
			writeUint64(&h, math.Float64bits(math.NaN()))
		default:
			writeUint64(&h, math.Float64bits(f))
		}
	case TypeString:
		h.WriteByte(3)
		h.WriteString(v.s)
	case TypeTimestamp:
		h.WriteByte(4)
		writeUint64(&h, uint64(v.i))
	}
	return h.Sum64()
}

func writeUint64(h *maphash.Hash, u uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

// Coerce converts v to the target type when a lossless or standard SQL
// conversion exists (int↔float, string→any via parsing, timestamp↔int).
func Coerce(v Value, t Type) (Value, error) {
	if v.typ == t || v.typ == TypeNull {
		return v, nil
	}
	switch t {
	case TypeBool:
		if v.typ == TypeString {
			switch strings.ToLower(v.s) {
			case "true", "t", "1":
				return NewBool(true), nil
			case "false", "f", "0":
				return NewBool(false), nil
			}
		}
		if v.typ == TypeInt {
			return NewBool(v.i != 0), nil
		}
	case TypeInt:
		switch v.typ {
		case TypeFloat:
			if f := v.fl(); f == math.Trunc(f) && !math.IsInf(f, 0) {
				return NewInt(int64(f)), nil
			}
		case TypeString:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64); err == nil {
				return NewInt(i), nil
			}
		case TypeTimestamp:
			return NewInt(v.i), nil
		case TypeBool:
			return NewInt(v.i), nil
		}
	case TypeFloat:
		switch v.typ {
		case TypeInt:
			return NewFloat(float64(v.i)), nil
		case TypeString:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64); err == nil {
				return NewFloat(f), nil
			}
		}
	case TypeString:
		return NewString(v.String()), nil
	case TypeTimestamp:
		switch v.typ {
		case TypeInt:
			return NewTimestamp(v.i), nil
		case TypeString:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64); err == nil {
				return NewTimestamp(i), nil
			}
		}
	}
	return Null, fmt.Errorf("types: cannot coerce %s %q to %s", v.typ, v.String(), t)
}
