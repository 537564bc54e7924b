package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// ixRef is one versioned index entry: key -> id, visible to snapshots at
// sequence s iff born <= s < dead. Writer-view lookups see exactly the
// live refs (dead == SeqInf). Dead refs are retained for snapshot readers
// and reclaimed by the watermark GC alongside their row versions.
//
// Ref slices are immutable once published: every mutation clones and
// republishes through an atomic pointer, so lock-free readers iterate a
// stable snapshot of the slice.
type ixRef struct {
	id   RowID
	born Seq
	dead Seq
}

func (r ixRef) visibleAt(seq Seq) bool { return r.born <= seq && seq < r.dead }

// Index maps key tuples (a projection of the row) to RowIDs. Two physical
// layouts exist behind the same API: a hash index (point lookups only) and
// an ordered skiplist index (point + range scans). Unique indexes hold at
// most one live RowID per key; dead entries from superseded or deleted
// versions coexist with it until reclaimed.
//
// Both layouts are single-writer (the partition worker) / many-reader with
// zero reader locks: the hash layout keeps copy-on-write bucket slices in
// a sync.Map, the ordered layout an atomic-linked skiplist. A reader that
// loads a bucket or node the writer then prunes keeps a consistent stale
// view; everything it can still see there is either dead at or below the
// watermark (invisible at any pinned sequence) or pending (invisible at
// any published one).
type Index struct {
	name    string
	cols    []int
	unique  bool
	ordered bool

	hash sync.Map // uint64 -> []*hashKey, COW slices; hash layout
	sl   *skiplist
	size atomic.Int64 // live refs
}

// hashKey is one distinct key of a hash bucket. key is immutable; refs is
// replaced copy-on-write. The node itself is never recycled, so a stale
// reader holding it is always safe.
type hashKey struct {
	key  types.Row
	refs atomic.Pointer[[]ixRef]
}

func (k *hashKey) loadRefs() []ixRef {
	if p := k.refs.Load(); p != nil {
		return *p
	}
	return nil
}

func newIndex(name string, cols []int, unique, ordered bool, em *EpochManager) *Index {
	ix := &Index{name: name, cols: append([]int(nil), cols...), unique: unique, ordered: ordered}
	if ordered {
		ix.sl = newSkiplist(em)
	}
	return ix
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Columns returns the indexed column ordinals.
func (ix *Index) Columns() []int { return append([]int(nil), ix.cols...) }

// Unique reports whether the index enforces key uniqueness.
func (ix *Index) Unique() bool { return ix.unique }

// Ordered reports whether the index supports range scans.
func (ix *Index) Ordered() bool { return ix.ordered }

// Len returns the number of live (key, RowID) pairs in the index.
func (ix *Index) Len() int { return int(ix.size.Load()) }

// bucket loads the COW key list under hash h (hash layout only).
func (ix *Index) bucket(h uint64) []*hashKey {
	if v, ok := ix.hash.Load(h); ok {
		return v.([]*hashKey)
	}
	return nil
}

// findKey returns the bucket's node for key, or nil.
func findKey(keys []*hashKey, key types.Row) *hashKey {
	for _, k := range keys {
		if k.key.Equal(key) {
			return k
		}
	}
	return nil
}

// insert adds a live ref born at the given sequence. Worker-only.
func (ix *Index) insert(key types.Row, id RowID, born Seq) error {
	if ix.ordered {
		if err := ix.sl.insert(key, id, born, ix.unique); err != nil {
			return fmt.Errorf("index %q: %w", ix.name, err)
		}
		ix.size.Add(1)
		return nil
	}
	h := key.Hash()
	keys := ix.bucket(h)
	if k := findKey(keys, key); k != nil {
		refs := k.loadRefs()
		if ix.unique && liveRef(refs) >= 0 {
			return fmt.Errorf("index %q: duplicate key %v", ix.name, key)
		}
		nw := make([]ixRef, len(refs)+1)
		copy(nw, refs)
		nw[len(refs)] = ixRef{id: id, born: born, dead: SeqInf}
		k.refs.Store(&nw)
		ix.size.Add(1)
		return nil
	}
	nk := &hashKey{key: key.Clone()}
	rs := []ixRef{{id: id, born: born, dead: SeqInf}}
	nk.refs.Store(&rs)
	nb := make([]*hashKey, len(keys)+1)
	copy(nb, keys)
	nb[len(keys)] = nk
	ix.hash.Store(h, nb)
	ix.size.Add(1)
	return nil
}

// liveRef returns the position of the first live ref with any id (-1 when
// none). Used for uniqueness checks.
func liveRef(refs []ixRef) int {
	for i := range refs {
		if refs[i].dead == SeqInf {
			return i
		}
	}
	return -1
}

// findRef returns the position of the live ref carrying id (-1 when none).
func findRef(refs []ixRef, id RowID) int {
	for i := range refs {
		if refs[i].id == id && refs[i].dead == SeqInf {
			return i
		}
	}
	return -1
}

// remove stamps the live ref for id dead at the given sequence. The entry
// stays visible to snapshots below it until GC'd. Worker-only.
func (ix *Index) remove(key types.Row, id RowID, dead Seq) {
	if ix.ordered {
		if ix.sl.remove(key, id, dead) {
			ix.size.Add(-1)
		}
		return
	}
	k := findKey(ix.bucket(key.Hash()), key)
	if k == nil {
		return
	}
	refs := k.loadRefs()
	if j := findRef(refs, id); j >= 0 {
		nw := append([]ixRef(nil), refs...)
		nw[j].dead = dead
		k.refs.Store(&nw)
		ix.size.Add(-1)
	}
}

// eraseLive physically removes the live ref for id — the undo of an
// insert, whose ref never became visible to any snapshot. Worker-only.
func (ix *Index) eraseLive(key types.Row, id RowID) {
	if ix.ordered {
		if ix.sl.eraseLive(key, id) {
			ix.size.Add(-1)
		}
		return
	}
	h := key.Hash()
	keys := ix.bucket(h)
	k := findKey(keys, key)
	if k == nil {
		return
	}
	refs := k.loadRefs()
	j := findRef(refs, id)
	if j < 0 {
		return
	}
	nw := make([]ixRef, 0, len(refs)-1)
	nw = append(nw, refs[:j]...)
	nw = append(nw, refs[j+1:]...)
	k.refs.Store(&nw)
	ix.size.Add(-1)
	if len(nw) == 0 {
		ix.dropKey(h, keys, k)
	}
}

// dropKey republishes the bucket without the emptied key node (removing
// the whole bucket when it was the last).
func (ix *Index) dropKey(h uint64, keys []*hashKey, k *hashKey) {
	nb := make([]*hashKey, 0, len(keys)-1)
	for _, kk := range keys {
		if kk != k {
			nb = append(nb, kk)
		}
	}
	if len(nb) == 0 {
		ix.hash.Delete(h)
	} else {
		ix.hash.Store(h, nb)
	}
}

// revive resets the ref for id stamped dead at exactly the given sequence
// back to live — the undo of a remove within the same (pending,
// unpublished) transaction. Several dead refs can carry the same (id,
// dead) when one transaction moves a key away and back repeatedly; undo
// runs newest-first, so the ref to revive is the most recently created
// matching one (largest born) — reviveRef shares this rule with the
// skiplist layout. Worker-only.
func (ix *Index) revive(key types.Row, id RowID, dead Seq) {
	if ix.ordered {
		if ix.sl.revive(key, id, dead) {
			ix.size.Add(1)
		}
		return
	}
	k := findKey(ix.bucket(key.Hash()), key)
	if k == nil {
		return
	}
	refs := k.loadRefs()
	best := reviveRef(refs, id, dead)
	if best < 0 {
		return
	}
	nw := append([]ixRef(nil), refs...)
	nw[best].dead = SeqInf
	k.refs.Store(&nw)
	ix.size.Add(1)
}

// reviveRef returns the position of the latest-born ref matching (id,
// dead), or -1. The caller flips it live on a cloned slice.
func reviveRef(refs []ixRef, id RowID, dead Seq) int {
	best := -1
	for j := range refs {
		if refs[j].id == id && refs[j].dead == dead {
			if best < 0 || refs[j].born > refs[best].born {
				best = j
			}
		}
	}
	return best
}

// Lookup returns the RowIDs live under exactly key (writer view, including
// the running transaction's own changes). The second result reports
// whether any exist.
func (ix *Index) Lookup(key types.Row) ([]RowID, bool) {
	if ix.ordered {
		ids := ix.sl.lookup(key)
		return ids, len(ids) > 0
	}
	k := findKey(ix.bucket(key.Hash()), key)
	if k == nil {
		return nil, false
	}
	var ids []RowID
	for _, r := range k.loadRefs() {
		if r.dead == SeqInf {
			ids = append(ids, r.id)
		}
	}
	return ids, len(ids) > 0
}

// lookupAt returns the RowIDs visible under key at sequence s. Safe from
// reader goroutines inside an epoch.
func (ix *Index) lookupAt(key types.Row, seq Seq) []RowID {
	if ix.ordered {
		return ix.sl.lookupAt(key, seq)
	}
	k := findKey(ix.bucket(key.Hash()), key)
	if k == nil {
		return nil
	}
	var ids []RowID
	for _, r := range k.loadRefs() {
		if r.visibleAt(seq) {
			ids = append(ids, r.id)
		}
	}
	return ids
}

// LookupUnique returns the single live RowID for key on a unique index.
func (ix *Index) LookupUnique(key types.Row) (RowID, bool) {
	ids, ok := ix.Lookup(key)
	if !ok || len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

// Range iterates live (key, id) pairs with lo <= key <= hi in key order.
// A nil bound is unbounded on that side. Requires an ordered index.
// The key passed to fn may alias index memory that is reused once the
// node is reclaimed; copy it to keep it past the call.
func (ix *Index) Range(lo, hi types.Row, fn func(key types.Row, id RowID) bool) error {
	if !ix.ordered {
		return fmt.Errorf("index %q: range scan on hash index", ix.name)
	}
	ix.sl.scan(lo, hi, fn)
	return nil
}

// gc drops refs dead at or below the watermark (and, in the ordered
// layout, unlinks emptied key nodes). Worker-only.
func (ix *Index) gc(watermark Seq) {
	if ix.ordered {
		ix.sl.gc(watermark)
		return
	}
	ix.hash.Range(func(hk, hv any) bool {
		keys := hv.([]*hashKey)
		var emptied []*hashKey
		for _, k := range keys {
			refs := k.loadRefs()
			drop := false
			for i := range refs {
				if refs[i].dead <= watermark {
					drop = true
					break
				}
			}
			if !drop {
				continue
			}
			nw := make([]ixRef, 0, len(refs))
			for _, r := range refs {
				if r.dead > watermark {
					nw = append(nw, r)
				}
			}
			k.refs.Store(&nw)
			if len(nw) == 0 {
				emptied = append(emptied, k)
			}
		}
		if len(emptied) == 0 {
			return true
		}
		nb := make([]*hashKey, 0, len(keys)-len(emptied))
		for _, k := range keys {
			if len(k.loadRefs()) > 0 {
				nb = append(nb, k)
			}
		}
		if len(nb) == 0 {
			ix.hash.Delete(hk)
		} else {
			ix.hash.Store(hk, nb)
		}
		return true
	})
}
