package storage

import (
	"testing"

	"repro/internal/israce"
	"repro/internal/types"
)

// TestAllocsTableInsert guards the insert path's allocations: the stored
// row copy, its slot, the version payload, the directory header, the
// pooled version and skiplist node (the pools start empty and inserts
// free nothing), and the key's one-ref list. Index keys are built on the
// stack. The bound is the count measured when that landed and only
// ratchets down — never raise it to pass.
func TestAllocsTableInsert(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := NewTable(votesSchema(t))
	row := types.Row{types.NewInt(0), types.NewInt(1), types.Null}
	phone := int64(0)
	got := testing.AllocsPerRun(200, func() {
		phone++
		row[0] = types.NewInt(phone)
		if _, err := tb.Insert(row, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > 7 {
		t.Fatalf("%.0f allocs per insert, bound 7", got)
	}
}

// TestIndexKeysAreCopies pins the ownership rule the stack-built keys and
// the engine's scratch rows rely on: tables and indexes keep copies, never
// the caller's row or key buffer. Rows go in through one reused buffer,
// keys through one reused key buffer; both are scribbled over afterwards,
// and every original key must still resolve — in both index layouts, for
// one- and multi-column keys, in the writer and the snapshot views.
func TestIndexKeysAreCopies(t *testing.T) {
	schema, err := types.NewSchema("kv", []types.Column{
		{Name: "a", Type: types.TypeInt, NotNull: true},
		{Name: "b", Type: types.TypeString},
		{Name: "c", Type: types.TypeInt},
	}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(schema)
	indexes := []struct {
		name    string
		cols    []int
		ordered bool
	}{
		{"hash_b", []int{1}, false},
		{"hash_bc", []int{1, 2}, false},
		{"ord_c", []int{2}, true},
		{"ord_ca", []int{2, 0}, true},
	}
	for _, ix := range indexes {
		if _, err := tb.CreateIndex(ix.name, ix.cols, false, ix.ordered); err != nil {
			t.Fatal(err)
		}
	}
	orig := func(i int64) types.Row {
		return types.Row{types.NewInt(i), types.NewString(string(rune('a' + i))), types.NewInt(100 + i)}
	}
	buf := make(types.Row, 3)
	scribble := func() {
		for i := range buf {
			buf[i] = types.NewString("scribbled")
		}
	}
	const n = 8
	ids := make([]RowID, n)
	for i := int64(0); i < n; i++ {
		copy(buf, orig(i))
		id, err := tb.Insert(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		scribble()
	}
	// Updates through a reused buffer too: move every row's c by 1000.
	for i := int64(0); i < n; i++ {
		copy(buf, orig(i))
		buf[2] = types.NewInt(1100 + i)
		if err := tb.Update(ids[i], buf, nil); err != nil {
			t.Fatal(err)
		}
		scribble()
	}
	tb.Clock().Publish()
	seq := tb.Clock().Current()

	// Direct index inserts through one reused key buffer.
	for _, ordered := range []bool{false, true} {
		ix := newIndex("direct", []int{0, 1}, true, ordered, tb.Clock().Epochs())
		key := make(types.Row, 2)
		for i := int64(0); i < n; i++ {
			key[0], key[1] = types.NewInt(i), types.NewString("k")
			if err := ix.insert(key, RowID(i+1), 1); err != nil {
				t.Fatal(err)
			}
			key[0], key[1] = types.NewString("scribbled"), types.Null
		}
		for i := int64(0); i < n; i++ {
			if id, ok := ix.LookupUnique(types.Row{types.NewInt(i), types.NewString("k")}); !ok || id != RowID(i+1) {
				t.Fatalf("ordered=%v: key %d -> %d %v", ordered, i, id, ok)
			}
		}
	}

	for i := int64(0); i < n; i++ {
		want := orig(i)
		want[2] = types.NewInt(1100 + i)
		for _, spec := range indexes {
			ix := tb.IndexByName(spec.name)
			key := want.Key(spec.cols)
			got, _ := ix.Lookup(key)
			if len(got) != 1 || got[0] != ids[i] {
				t.Fatalf("%s%v: writer lookup %v, want [%d]", spec.name, key, got, ids[i])
			}
			rows := tb.SnapshotLookup(ix, key, seq)
			if len(rows) != 1 || !rows[0].Equal(want) {
				t.Fatalf("%s%v: snapshot lookup %v, want %v", spec.name, key, rows, want)
			}
		}
		if r, ok := tb.Get(ids[i]); !ok || !r.Equal(want) {
			t.Fatalf("row %d = %v, want %v", ids[i], r, want)
		}
	}
	// The pre-update keys of the multi-column indexes were retired, not
	// overwritten in place.
	if got, _ := tb.IndexByName("ord_ca").Lookup(types.Row{types.NewInt(100), types.NewInt(0)}); len(got) != 0 {
		t.Fatalf("stale ordered key still live: %v", got)
	}
}
