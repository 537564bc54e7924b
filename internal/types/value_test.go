package types

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Type() != TypeNull {
		t.Fatal("zero Value must be NULL")
	}
	if v := NewBool(true); !v.Bool() || v.Type() != TypeBool {
		t.Errorf("NewBool(true) = %v", v)
	}
	if v := NewInt(-42); v.Int() != -42 || v.Type() != TypeInt {
		t.Errorf("NewInt(-42) = %v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Type() != TypeFloat {
		t.Errorf("NewFloat(2.5) = %v", v)
	}
	if v := NewString("hi"); v.Str() != "hi" || v.Type() != TypeString {
		t.Errorf("NewString = %v", v)
	}
	if v := NewTimestamp(123); v.Timestamp() != 123 || v.Type() != TypeTimestamp {
		t.Errorf("NewTimestamp = %v", v)
	}
	if NewInt(7).Float() != 7.0 {
		t.Error("Int should widen to Float")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { NewInt(1).Bool() },
		func() { NewBool(true).Int() },
		func() { NewString("x").Float() },
		func() { NewInt(1).Str() },
		func() { NewInt(1).Timestamp() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCompareCrossTypeNumeric(t *testing.T) {
	if NewInt(2).Compare(NewFloat(2.0)) != 0 {
		t.Error("2 should equal 2.0")
	}
	if NewInt(2).Compare(NewFloat(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	if NewFloat(3.5).Compare(NewInt(3)) != 1 {
		t.Error("3.5 > 3")
	}
	if Null.Compare(NewInt(math.MinInt64)) != -1 {
		t.Error("NULL sorts first")
	}
	if NewString("a").Compare(NewInt(1)) != 1 {
		t.Error("strings sort after numerics")
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]Value, 0, 200)
	for i := 0; i < 200; i++ {
		vals = append(vals, randomValue(rng))
	}
	for _, a := range vals {
		if a.Compare(a) != 0 {
			t.Fatalf("reflexivity violated for %v", a)
		}
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Fatalf("antisymmetry violated for %v vs %v", a, b)
			}
			for _, c := range vals {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	if NewInt(2).Hash() != NewFloat(2.0).Hash() {
		t.Error("2 and 2.0 compare equal so must hash equal")
	}
	f := func(i int64) bool {
		return NewInt(i).Hash() == NewInt(i).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Property: equal values hash equal for random pairs.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b := randomValue(rng), randomValue(rng)
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("%v == %v but hashes differ", a, b)
		}
	}
}

func TestNaNOrderingIsTotal(t *testing.T) {
	nan := NewFloat(math.NaN())
	if nan.Compare(nan) != 0 {
		t.Error("NaN must equal itself in the storage order")
	}
	if nan.Compare(NewFloat(0)) != -1 || NewFloat(0).Compare(nan) != 1 {
		t.Error("NaN must sort before numbers")
	}
	if nan.Compare(NewFloat(math.Inf(-1))) != -1 {
		t.Error("NaN must sort before -Inf")
	}
}

// TestFloatEdgeValues covers the float payloads whose exact bits a Value
// must keep: NaNs (with two payloads), signed zeros, infinities and
// subnormals — through Compare, Hash, struct equality and the codec.
func TestFloatEdgeValues(t *testing.T) {
	nanA := math.NaN()
	nanB := math.Float64frombits(0x7ff8000000000001) // a different NaN payload
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	// Ascending in the storage order; equal neighbours share a group.
	groups := [][]float64{
		{nanA, nanB},
		{math.Inf(-1)},
		{-math.MaxFloat64},
		{-sub},
		{negZero, 0},
		{sub},
		{2 * sub},
		{math.Inf(1)},
	}
	var vals []Value
	var bits []uint64
	var group []int
	for g, fs := range groups {
		for _, f := range fs {
			vals = append(vals, NewFloat(f))
			bits = append(bits, math.Float64bits(f))
			group = append(group, g)
		}
	}
	for i, a := range vals {
		if got := math.Float64bits(a.Float()); got != bits[i] {
			t.Fatalf("value %d: Float() bits %#x, want %#x", i, got, bits[i])
		}
		for j, b := range vals {
			want := cmpInt(int64(group[i]), int64(group[j]))
			if got := a.Compare(b); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, want)
			}
			if a.Equal(b) && a.Hash() != b.Hash() {
				t.Errorf("%v == %v but hashes differ", a, b)
			}
		}
	}
	if NewFloat(0).Hash() != NewFloat(negZero).Hash() || NewFloat(negZero).Hash() != NewInt(0).Hash() {
		t.Error("0, -0 and BIGINT 0 compare equal so must hash equal")
	}
	// Struct equality compares bits: -0 and +0 differ, a NaN matches itself.
	if NewFloat(0) == NewFloat(negZero) {
		t.Error("== must distinguish -0 from +0 (bitwise)")
	}
	if NewFloat(nanA) != NewFloat(nanA) {
		t.Error("== must match identical NaN bits")
	}
	if got := NewFloat(negZero).String(); got != "-0" {
		t.Errorf("String(-0) = %q", got)
	}

	// The codec carries every payload bit through unchanged.
	row := Row(vals)
	out, rest, err := DecodeRow(EncodeRow(nil, row))
	if err != nil || len(rest) != 0 || len(out) != len(row) {
		t.Fatalf("DecodeRow: %v (rest %d, %d values)", err, len(rest), len(out))
	}
	for i := range row {
		if out[i].Type() != TypeFloat || math.Float64bits(out[i].Float()) != bits[i] {
			t.Errorf("value %d: round trip %#x -> %#x", i, bits[i], math.Float64bits(out[i].Float()))
		}
	}
}

// TestValueSize guards the 32-byte layout: rows, index keys and
// parameter slices are arrays of Values, so a new field grows them all.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in      Value
		to      Type
		want    Value
		wantErr bool
	}{
		{NewInt(3), TypeFloat, NewFloat(3), false},
		{NewFloat(3), TypeInt, NewInt(3), false},
		{NewFloat(3.5), TypeInt, Null, true},
		{NewString("42"), TypeInt, NewInt(42), false},
		{NewString("4.5"), TypeFloat, NewFloat(4.5), false},
		{NewString("x"), TypeInt, Null, true},
		{NewInt(1), TypeBool, NewBool(true), false},
		{NewString("true"), TypeBool, NewBool(true), false},
		{NewInt(9), TypeTimestamp, NewTimestamp(9), false},
		{NewTimestamp(9), TypeInt, NewInt(9), false},
		{NewInt(7), TypeString, NewString("7"), false},
		{Null, TypeInt, Null, false},
	}
	for _, c := range cases {
		got, err := Coerce(c.in, c.to)
		if c.wantErr {
			if err == nil {
				t.Errorf("Coerce(%v, %v): expected error, got %v", c.in, c.to, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Coerce(%v, %v): %v", c.in, c.to, err)
			continue
		}
		if !got.Equal(c.want) || got.Type() != c.want.Type() {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
}

func TestParseType(t *testing.T) {
	for name, want := range map[string]Type{
		"int": TypeInt, "INTEGER": TypeInt, "bigint": TypeInt,
		"float": TypeFloat, "DOUBLE": TypeFloat,
		"varchar": TypeString, "TEXT": TypeString,
		"timestamp": TypeTimestamp, "BOOLEAN": TypeBool,
	} {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null, "true": NewBool(true), "-7": NewInt(-7),
		"2.5": NewFloat(2.5), "abc": NewString("abc"), "10us": NewTimestamp(10),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if got := NewString("o'neil").SQLLiteral(); got != "'o''neil'" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

// randomValue draws a value covering every type class, shared across tests.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(7) {
	case 0:
		return Null
	case 1:
		return NewBool(rng.Intn(2) == 0)
	case 2:
		return NewInt(rng.Int63n(100) - 50)
	case 3:
		return NewFloat(float64(rng.Int63n(100)-50) / 2)
	case 4:
		return NewString(string(rune('a' + rng.Intn(26))))
	case 5:
		return NewTimestamp(rng.Int63n(1000))
	default:
		return NewFloat(math.NaN())
	}
}
