package types

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary encoding of values and rows, shared by the command log, snapshots,
// and the wire protocol. The format is length-prefixed and self-describing:
//
//	value  := typeByte payload
//	row    := uvarint(n) value*n
//
// Integers use zig-zag varints; strings are uvarint length + bytes.

// EncodeValue appends the binary encoding of v to buf and returns it.
func EncodeValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.typ))
	switch v.typ {
	case TypeNull:
	case TypeBool:
		buf = append(buf, byte(v.i))
	case TypeInt, TypeTimestamp:
		buf = binary.AppendVarint(buf, v.i)
	case TypeFloat:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.i))
	case TypeString:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	}
	return buf
}

// DecodeValue decodes one value from buf, returning it and the remaining
// bytes.
func DecodeValue(buf []byte) (Value, []byte, error) {
	if len(buf) == 0 {
		return Null, nil, io.ErrUnexpectedEOF
	}
	t := Type(buf[0])
	buf = buf[1:]
	switch t {
	case TypeNull:
		return Null, buf, nil
	case TypeBool:
		if len(buf) < 1 {
			return Null, nil, io.ErrUnexpectedEOF
		}
		return NewBool(buf[0] != 0), buf[1:], nil
	case TypeInt, TypeTimestamp:
		i, n := binary.Varint(buf)
		if n <= 0 {
			return Null, nil, io.ErrUnexpectedEOF
		}
		if t == TypeInt {
			return NewInt(i), buf[n:], nil
		}
		return NewTimestamp(i), buf[n:], nil
	case TypeFloat:
		if len(buf) < 8 {
			return Null, nil, io.ErrUnexpectedEOF
		}
		return Value{typ: TypeFloat, i: int64(binary.LittleEndian.Uint64(buf))}, buf[8:], nil
	case TypeString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return Null, nil, io.ErrUnexpectedEOF
		}
		return NewString(string(buf[n : n+int(l)])), buf[n+int(l):], nil
	default:
		return Null, nil, fmt.Errorf("types: corrupt value encoding: unknown tag %d", t)
	}
}

// EncodeRow appends the binary encoding of r to buf and returns it.
func EncodeRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = EncodeValue(buf, v)
	}
	return buf
}

// DecodeRow decodes one row from buf, returning it and the remaining bytes.
func DecodeRow(buf []byte) (Row, []byte, error) {
	n, c := binary.Uvarint(buf)
	if c <= 0 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	if n > uint64(len(buf)) { // cheap corruption guard before allocating
		return nil, nil, fmt.Errorf("types: corrupt row encoding: arity %d exceeds buffer", n)
	}
	buf = buf[c:]
	r := make(Row, n)
	var err error
	for i := range r {
		r[i], buf, err = DecodeValue(buf)
		if err != nil {
			return nil, nil, err
		}
	}
	return r, buf, nil
}

// EncodeRows appends a uvarint count followed by each row.
func EncodeRows(buf []byte, rows []Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = EncodeRow(buf, r)
	}
	return buf
}

// DecodeRows decodes a row batch written by EncodeRows.
func DecodeRows(buf []byte) ([]Row, []byte, error) {
	n, c := binary.Uvarint(buf)
	if c <= 0 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("types: corrupt batch encoding: count %d exceeds buffer", n)
	}
	buf = buf[c:]
	rows := make([]Row, n)
	var err error
	for i := range rows {
		rows[i], buf, err = DecodeRow(buf)
		if err != nil {
			return nil, nil, err
		}
	}
	return rows, buf, nil
}
