package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/types"
)

func intKey(i int64) types.Row { return types.Row{types.NewInt(i)} }

func TestSkiplistInsertLookupRemove(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := int64(0); i < 100; i++ {
		if err := sl.insert(intKey(i), RowID(i+1), 1, true); err != nil {
			t.Fatal(err)
		}
	}
	if sl.length != 100 {
		t.Fatalf("length %d", sl.length)
	}
	if err := sl.insert(intKey(50), 999, 2, true); err == nil {
		t.Fatal("unique violation accepted")
	}
	if ids := lookup(sl.refsFor, intKey(50)); len(ids) != 1 || ids[0] != 51 {
		t.Fatalf("lookup: %v", ids)
	}
	if !sl.remove(intKey(50), 51, 2) {
		t.Fatal("remove failed")
	}
	if sl.remove(intKey(50), 51, 3) {
		t.Fatal("double remove succeeded")
	}
	// Writer view no longer sees the entry; a snapshot below the death
	// sequence still does, until GC passes the watermark.
	if ids := lookup(sl.refsFor, intKey(50)); ids != nil {
		t.Fatal("lookup after remove")
	}
	if ids := lookupAt(sl.refsFor, intKey(50), 1); len(ids) != 1 || ids[0] != 51 {
		t.Fatalf("snapshot lookup after remove: %v", ids)
	}
	sl.gc(2)
	if ids := lookupAt(sl.refsFor, intKey(50), 1); ids != nil {
		t.Fatalf("snapshot lookup after gc: %v", ids)
	}
	if sl.length != 99 {
		t.Fatalf("length after gc %d", sl.length)
	}
}

func TestSkiplistDuplicateKeysNonUnique(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := 0; i < 5; i++ {
		if err := sl.insert(intKey(7), RowID(i+1), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if ids := lookup(sl.refsFor, intKey(7)); len(ids) != 5 {
		t.Fatalf("dup ids: %v", ids)
	}
	if sl.length != 1 {
		t.Fatalf("distinct keys: %d", sl.length)
	}
	// remove one id at a time; wrong id is a no-op
	if sl.remove(intKey(7), 99, 2) {
		t.Fatal("removed phantom id")
	}
	for i := 0; i < 5; i++ {
		if !sl.remove(intKey(7), RowID(i+1), 2) {
			t.Fatal("remove")
		}
	}
	if ids := lookup(sl.refsFor, intKey(7)); ids != nil {
		t.Fatalf("live ids after drain: %v", ids)
	}
	sl.gc(2)
	if sl.length != 0 {
		t.Fatal("key not drained after gc")
	}
}

// TestSkiplistMatchesSortedSlice is a property test: after a random mix of
// inserts, deletes and undone inserts, a full scan must equal the sorted
// model exactly. The inputs cover towers taller than the inline levels,
// two-column (cloned) keys, unlinks whose nodes come back from the pool
// at a different height after an epoch advance, and a snapshot reader
// walking the list while all of that happens.
func TestSkiplistMatchesSortedSlice(t *testing.T) {
	cases := []struct {
		name     string
		keySpace int64
		cols     int  // 1: inline key; 2: cloned key
		erase    bool // undo half the deletes with eraseLive instead of remove
		reader   bool // run a concurrent snapshot reader
	}{
		{name: "small", keySpace: 500, cols: 1},
		{name: "tall_towers", keySpace: 20000, cols: 1},
		{name: "two_column_keys", keySpace: 2000, cols: 2},
		{name: "erase_reuse", keySpace: 2000, cols: 1, erase: true},
		{name: "erase_reuse_two_column_reader", keySpace: 2000, cols: 2, erase: true, reader: true},
		{name: "tall_towers_reader", keySpace: 20000, cols: 1, erase: true, reader: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two-column keys (k/7, "k%7") sort in the same order as k.
			key := func(k int64) types.Row {
				if tc.cols == 1 {
					return intKey(k)
				}
				return types.Row{types.NewInt(k / 7), types.NewString(string(rune('0' + k%7)))}
			}
			decode := func(r types.Row) int64 {
				if len(r) != tc.cols {
					return -1
				}
				if tc.cols == 1 {
					return r[0].Int()
				}
				return r[0].Int()*7 + int64(r[1].Str()[0]-'0')
			}
			em := NewEpochManager()
			sl := newSkiplist(em)

			stop := make(chan struct{})
			readerErr := make(chan error, 1)
			var wg sync.WaitGroup
			if tc.reader {
				wg.Add(1)
				go func() {
					defer wg.Done()
					readerErr <- skiplistReader(sl, em, decode, stop)
				}()
			}

			rng := rand.New(rand.NewSource(5))
			model := map[int64]bool{}
			heights := map[*slNode]int{} // last height each node was linked at
			var up, down, crossUp, crossDown, tall int
			steps := 20000
			if tc.keySpace > 5000 {
				steps = 60000
			}
			for step := 0; step < steps; step++ {
				k := rng.Int63n(tc.keySpace)
				seq := Seq(step + 1)
				switch {
				case model[k] && tc.erase && rng.Intn(2) == 0:
					if !sl.eraseLive(key(k), RowID(k+1)) {
						t.Fatalf("step %d: eraseLive %d failed", step, k)
					}
					delete(model, k)
				case model[k]:
					if !sl.remove(key(k), RowID(k+1), seq) {
						t.Fatalf("step %d: remove %d failed", step, k)
					}
					delete(model, k)
				default:
					if err := sl.insert(key(k), RowID(k+1), seq, true); err != nil {
						t.Fatalf("step %d: insert %d: %v", step, k, err)
					}
					model[k] = true
					var update [maxLevel]*slNode
					n := sl.findPredecessors(key(k), &update)
					h := len(n.tower)
					if prev, seen := heights[n]; seen { // a pooled node, reused
						switch {
						case h > prev:
							up++
							if prev <= inlineLevels && h > inlineLevels {
								crossUp++
							}
						case h < prev:
							down++
							if prev > inlineLevels && h <= inlineLevels {
								crossDown++
							}
						}
					}
					heights[n] = h
					if h > inlineLevels {
						tall++
					}
				}
				if step%512 == 0 {
					sl.gc(seq) // everything is "committed" in this model
					em.Advance()
				}
			}
			close(stop)
			wg.Wait()
			if tc.reader {
				if err := <-readerErr; err != nil {
					t.Fatal(err)
				}
			}

			want := make([]int64, 0, len(model))
			for k := range model {
				want = append(want, k)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			var got []int64
			sl.scan(nil, nil, func(k types.Row, id RowID) bool {
				if id != RowID(decode(k)+1) {
					t.Fatalf("key %v carries id %d", k, id)
				}
				got = append(got, decode(k))
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("scan %d keys want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("position %d: %d want %d", i, got[i], want[i])
				}
			}
			if tc.keySpace > 5000 && tall == 0 {
				t.Fatalf("no node taller than %d inline levels", inlineLevels)
			}
			if tc.erase {
				t.Logf("reuse height changes: up %d (%d past inline) down %d (%d back inline)", up, crossUp, down, crossDown)
				if _, _, _, reused := em.Stats(); reused == 0 || crossUp == 0 || crossDown == 0 {
					t.Fatalf("pooled nodes not reused across the inline height: reused=%d up=%d down=%d", reused, crossUp, crossDown)
				}
			}
		})
	}
}

// skiplistReader walks the list in snapshot epochs until stop closes. Each
// key must be well formed, carry its own id, and sort strictly after the
// previous one: a node reused before its grace period would break one of
// the three.
func skiplistReader(sl *skiplist, em *EpochManager, decode func(types.Row) int64, stop chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		g := em.Enter()
		prev := int64(-1)
		var err error
		sl.scanAt(nil, nil, SeqInf-1, func(k types.Row, id RowID) bool {
			d := decode(k)
			switch {
			case d < 0 || id != RowID(d+1):
				err = fmt.Errorf("reader: key %v carries id %d", k, id)
			case d < prev:
				err = fmt.Errorf("reader: key %d after %d", d, prev)
			}
			prev = d
			return err == nil
		})
		g.Exit()
		if err != nil {
			return err
		}
	}
}

// TestSlNodeSize guards the node layout: one-column keys and towers up to
// inlineLevels share one 128-byte allocation.
func TestSlNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(slNode{}); got > 128 {
		t.Fatalf("unsafe.Sizeof(slNode{}) = %d, want <= 128", got)
	}
}

func TestSkiplistBoundedScan(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := int64(0); i < 100; i += 2 { // evens only
		_ = sl.insert(intKey(i), RowID(i+1), 1, true)
	}
	var got []int64
	// lo falls between keys; hi is exact
	sl.scan(intKey(13), intKey(20), func(k types.Row, _ RowID) bool {
		got = append(got, k[0].Int())
		return true
	})
	want := []int64{14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	// early stop
	n := 0
	sl.scan(nil, nil, func(types.Row, RowID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop n=%d", n)
	}
}

// lookup returns the live ids in refs(key), nil when none.
func lookup(refs func(types.Row) []ixRef, key types.Row) []RowID {
	var ids []RowID
	for _, r := range refs(key) {
		if r.dead == SeqInf {
			ids = append(ids, r.id)
		}
	}
	return ids
}

// lookupAt returns the ids in refs(key) visible at seq, nil when none.
func lookupAt(refs func(types.Row) []ixRef, key types.Row, seq Seq) []RowID {
	var ids []RowID
	for _, r := range refs(key) {
		if r.visibleAt(seq) {
			ids = append(ids, r.id)
		}
	}
	return ids
}
