// Package storage implements the in-memory storage engine: row-store
// tables with insertion-ordered scans, hash and ordered secondary indexes,
// primary-key and unique constraints, and per-transaction undo logs that
// give the engine physical atomicity.
//
// Tables are multi-versioned. The partition engine executes transactions
// serially (H-Store style), so at most one writer touches a table at any
// instant; every write creates a new row version stamped with the
// partition's pending commit sequence (see PartitionClock), and commits
// publish the sequence atomically. Snapshot readers on other goroutines
// pick a published sequence and read the versions visible at it —
// concurrently with the writer — through the Snapshot* methods, which take
// no locks at all: the slot directory, version chains, and index
// structures are published through atomic pointers, and reclaimed memory
// is recycled only after an epoch grace period (epoch.go) guarantees no
// reader still holds it. Old versions are unlinked once the watermark
// (oldest pinned snapshot) passes their death sequence.
package storage

import (
	"fmt"
	"sync/atomic"

	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// RowID identifies a logical row within one table. IDs are assigned
// monotonically and never reused, so scanning in RowID order equals
// insertion order — the property streams rely on for FIFO batches.
type RowID uint64

// versionPayload is a version's row image — either a resident row or a
// cold-store stub (row nil, cold naming the tuple on disk). The pair is
// swapped through one atomic pointer so eviction and rehydration are
// single atomic stores a concurrent reader sees whole. Payload objects are
// immutable once published and never recycled; a reader that captured one
// may use it after leaving its epoch.
type versionPayload struct {
	row  types.Row
	cold coldstore.Ref
}

// rowVersion is one image of a row: visible to snapshots at sequence s iff
// born <= s < dead. A live version has dead == SeqInf; an uncommitted one
// has born (or dead, for a pending delete) equal to the clock's pending
// sequence, which no published snapshot can reach. Versions form a
// singly-linked chain, newest first, through atomic next pointers.
//
// Nodes are pooled: after being unlinked they are epoch-retired and only
// rewritten for a new row once every reader that could hold one has left
// its epoch — which is why every field a reader dereferences is atomic.
type rowVersion struct {
	born    atomic.Uint64
	dead    atomic.Uint64
	payload atomic.Pointer[versionPayload]
	next    atomic.Pointer[rowVersion]
}

// newRowVersion draws a pooled node and initializes it. Worker-only; the
// node is private until linked into a published chain.
func newRowVersion(row types.Row, ref coldstore.Ref, born, dead Seq) *rowVersion {
	v := versionPool.Get().(*rowVersion)
	v.born.Store(born)
	v.dead.Store(dead)
	v.payload.Store(&versionPayload{row: row, cold: ref})
	v.next.Store(nil)
	return v
}

// rowSlot is one entry of the table heap: a logical row's version chain,
// newest first. A slot whose newest version is dead is a logical tombstone
// retained for snapshot readers until the watermark passes; a slot whose
// head is nil is empty (undone insert / unstaged copy) and is dropped at
// the next directory rebuild. touched is the anti-caching second-chance
// bit. Slots are heap objects referenced from the directory and never
// recycled, so stale readers always hold intact memory.
type rowSlot struct {
	id      RowID
	head    atomic.Pointer[rowVersion]
	touched atomic.Uint32
}

// liveHead returns the newest version when it is live (writer view), else
// nil.
func (s *rowSlot) liveHead() *rowVersion {
	h := s.head.Load()
	if h != nil && h.dead.Load() == SeqInf {
		return h
	}
	return nil
}

// versionAt resolves the version visible at sequence seq, or nil. Safe
// from reader goroutines inside an epoch: the chain is newest-first and
// every link is atomic, so a concurrent writer prepending or a GC pruning
// the dead tail leaves the walk on intact nodes.
func (s *rowSlot) versionAt(seq Seq) *rowVersion {
	for v := s.head.Load(); v != nil; v = v.next.Load() {
		if v.born.Load() <= seq && seq < v.dead.Load() {
			return v
		}
	}
	return nil
}

// Table is an in-memory multi-versioned row store with attached indexes.
//
// Concurrency contract: exactly one goroutine mutates at a time — the
// partition worker (or recovery, or a quiescent migration barrier, which
// the engine serializes against the worker). Mutators use the plain
// worker-only fields freely. Any goroutine may read through the Snapshot*
// methods, which run lock-free under an epoch guard; shared state they
// touch (directory, chains, indexes, counters) is published atomically.
type Table struct {
	name   string
	schema *types.Schema
	clock  *PartitionClock

	// dir is the published slot directory in ascending-RowID order.
	// Appends republish a longer slice header over the same backing array
	// (a reader's shorter header never covers the newly written element);
	// GC compaction republishes a freshly built array, so a reader's
	// stale header keeps indexing untouched memory either way.
	dir  atomic.Pointer[[]*rowSlot]
	byID map[RowID]*rowSlot // worker-only RowID -> slot

	nextID RowID // worker-only
	// gcMinDead backs inline sweeps off: after a sweep, dead versions must
	// double before the next attempt, so a pile of still-pinned (or still-
	// pending) versions cannot trigger an O(n) sweep per delete.
	gcMinDead int // worker-only

	live     atomic.Int64 // slots whose newest version is live
	staged   atomic.Int64 // staged slots awaiting CommitStaged (slot migration)
	deadVers atomic.Int64 // versions with a dead stamp (reclaim candidates)

	indexes atomic.Pointer[[]*Index]
	pk      *Index // non-nil when the schema declares a primary key

	// Anti-caching state (cold.go). cold is nil unless attached; the
	// resident-bytes ledger is maintained regardless so attaching is free.
	cold          *coldstore.Store
	residentBytes atomic.Int64  // approximate heap bytes of non-stub versions
	coldVers      atomic.Int64  // versions currently evicted (stubs)
	coldEvictions atomic.Uint64 // versions moved cold, cumulative
	coldFaults    atomic.Uint64 // stub resolutions, cumulative
	evictCursor   int           // round-robin clock hand over slots (worker-only)
	encBuf        []byte        // eviction scratch (worker-only)
}

// NewTable creates an empty table with a private commit clock (standalone
// use and tests). When the schema has a primary key, a unique ordered index
// named "<table>_pkey" is created automatically.
func NewTable(schema *types.Schema) *Table {
	return NewTableWithClock(schema, NewPartitionClock())
}

// NewTableWithClock creates an empty table stamping its versions from the
// given clock — the catalog passes one shared clock per partition so a
// transaction spanning several tables publishes atomically.
func NewTableWithClock(schema *types.Schema, clock *PartitionClock) *Table {
	t := &Table{
		name:   schema.Name(),
		schema: schema,
		clock:  clock,
		byID:   make(map[RowID]*rowSlot),
		nextID: 1,
	}
	empty := make([]*rowSlot, 0)
	t.dir.Store(&empty)
	if schema.HasPrimaryKey() {
		pk, err := t.CreateIndex(schema.Name()+"_pkey", schema.PrimaryKey(), true, true)
		if err != nil {
			panic("storage: fresh table cannot fail pk creation: " + err.Error())
		}
		t.pk = pk
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Clock returns the commit clock the table stamps versions from.
func (t *Table) Clock() *PartitionClock { return t.clock }

// Count returns the number of live rows (writer view).
func (t *Table) Count() int { return int(t.live.Load()) }

// PrimaryIndex returns the primary-key index, or nil for keyless tables.
func (t *Table) PrimaryIndex() *Index { return t.pk }

// idxs returns the published index list (shared, immutable slice).
func (t *Table) idxs() []*Index {
	if p := t.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// Indexes returns all indexes on the table.
func (t *Table) Indexes() []*Index { return append([]*Index(nil), t.idxs()...) }

// IndexByName finds an index by name, or nil. Safe from any goroutine.
func (t *Table) IndexByName(name string) *Index {
	for _, ix := range t.idxs() {
		if ix.Name() == name {
			return ix
		}
	}
	return nil
}

// slots returns the published directory. Readers must hold an epoch guard
// for the pointers inside to stay reusable-safe; the worker may call it
// bare.
func (t *Table) slots() []*rowSlot { return *t.dir.Load() }

// appendSlot publishes a directory one slot longer. Worker-only.
func (t *Table) appendSlot(s *rowSlot) {
	cur := t.slots()
	nxt := append(cur, s)
	t.dir.Store(&nxt)
}

// slotSearch returns the first directory position whose id is >= minID
// (len(d) when none) — the directory is ascending in RowID.
func slotSearch(d []*rowSlot, minID RowID) int {
	lo, hi := 0, len(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d[mid].id < minID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// slotByID finds the slot for id in the published directory, or nil.
// Readers' replacement for the worker-only byID map.
func slotByID(d []*rowSlot, id RowID) *rowSlot {
	i := slotSearch(d, id)
	if i < len(d) && d[i].id == id {
		return d[i]
	}
	return nil
}

// CreateIndex builds an index over the given column ordinals and backfills
// it from live rows (each entry born at its row version's birth, so
// snapshots of current rows resolve through the new index too). ordered
// selects a skiplist (range-scannable) index; otherwise a hash index is
// built. Unique indexes reject duplicate keys. Worker-only (DDL).
func (t *Table) CreateIndex(name string, cols []int, unique, ordered bool) (*Index, error) {
	for _, ix := range t.idxs() {
		if ix.Name() == name {
			return nil, fmt.Errorf("storage: index %q already exists on %s", name, t.name)
		}
	}
	for _, c := range cols {
		if c < 0 || c >= t.schema.NumColumns() {
			return nil, fmt.Errorf("storage: index %q references column %d outside schema of %s", name, c, t.name)
		}
	}
	ix := newIndex(name, cols, unique, ordered, t.clock.Epochs())
	for _, s := range t.slots() {
		h := s.liveHead()
		if h == nil {
			continue
		}
		pl := h.payload.Load()
		row := t.resolveVersion(pl.row, pl.cold)
		if err := ix.insert(row.Key(cols), s.id, h.born.Load()); err != nil {
			return nil, fmt.Errorf("storage: backfilling %q: %w", name, err)
		}
	}
	cur := t.idxs()
	nw := make([]*Index, len(cur)+1)
	copy(nw, cur)
	nw[len(cur)] = ix
	t.indexes.Store(&nw)
	return ix, nil
}

// Get returns the row stored under id (writer view: newest live version).
// The returned row must be treated as immutable; callers that mutate must
// Clone first. An evicted row is faulted back into the chain (worker-only,
// like every writer-view access).
func (t *Table) Get(id RowID) (types.Row, bool) {
	s, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	h := s.liveHead()
	if h == nil {
		return nil, false
	}
	s.touch()
	if pl := h.payload.Load(); pl.row != nil {
		return pl.row, true
	}
	return t.faultHead(s), true
}

// Insert validates the row against the schema, assigns a RowID, and updates
// every index. The new version is stamped with the pending sequence, so it
// is invisible to snapshots until the clock publishes. When undo is non-nil
// a compensating delete is recorded.
func (t *Table) Insert(row types.Row, undo *UndoLog) (RowID, error) {
	validated, err := t.schema.ValidateRow(row)
	if err != nil {
		return 0, err
	}
	// Check unique constraints before touching any state so a failed insert
	// leaves the table untouched.
	for _, ix := range t.idxs() {
		if ix.unique {
			if _, exists := ix.Lookup(validated.Key(ix.cols)); exists {
				return 0, fmt.Errorf("storage: %s: duplicate key %v for unique index %q",
					t.name, validated.Key(ix.cols), ix.Name())
			}
		}
	}
	ws := t.clock.WriteSeq()
	id := t.nextID
	t.nextID++
	s := &rowSlot{id: id}
	s.head.Store(newRowVersion(validated, 0, ws, SeqInf))
	t.byID[id] = s
	t.appendSlot(s)
	for _, ix := range t.idxs() {
		if err := ix.insert(validated.Key(ix.cols), id, ws); err != nil {
			panic("storage: index insert failed after uniqueness pre-check: " + err.Error())
		}
	}
	t.live.Add(1)
	t.residentBytes.Add(rowMemSize(validated))
	if undo != nil {
		undo.push(undoEntry{table: t, kind: undoInsert, id: id})
	}
	return id, nil
}

// Delete ends the row's current version at the pending sequence and stamps
// its index entries dead. The version chain is retained for snapshot
// readers until the watermark passes. When undo is non-nil a compensating
// revive is recorded.
func (t *Table) Delete(id RowID, undo *UndoLog) error {
	s, ok := t.byID[id]
	if !ok {
		return fmt.Errorf("storage: %s: delete of missing row %d", t.name, id)
	}
	h := s.liveHead()
	if h == nil {
		return fmt.Errorf("storage: %s: delete of missing row %d", t.name, id)
	}
	row := h.payload.Load().row
	if row == nil {
		row = t.faultHead(s) // index removal needs the key columns
	}
	ws := t.clock.WriteSeq()
	for _, ix := range t.idxs() {
		ix.remove(row.Key(ix.cols), id, ws)
	}
	h.dead.Store(ws)
	t.live.Add(-1)
	t.deadVers.Add(1)
	t.maybeGC()
	if undo != nil {
		undo.push(undoEntry{table: t, kind: undoDelete, id: id})
	}
	return nil
}

// Update ends the current version at the pending sequence and prepends a
// new one, revalidating and reindexing (index entries whose key is
// unchanged carry over). When undo is non-nil a compensating restore is
// recorded.
func (t *Table) Update(id RowID, newRow types.Row, undo *UndoLog) error {
	s, ok := t.byID[id]
	if !ok {
		return fmt.Errorf("storage: %s: update of missing row %d", t.name, id)
	}
	h := s.liveHead()
	if h == nil {
		return fmt.Errorf("storage: %s: update of missing row %d", t.name, id)
	}
	validated, err := t.schema.ValidateRow(newRow)
	if err != nil {
		return err
	}
	old := h.payload.Load().row
	if old == nil {
		old = t.faultHead(s) // reindexing and undo need the old image hot
	}
	// Uniqueness pre-check, ignoring our own entry.
	for _, ix := range t.idxs() {
		if !ix.unique {
			continue
		}
		newKey := validated.Key(ix.cols)
		if newKey.Equal(old.Key(ix.cols)) {
			continue
		}
		if _, exists := ix.Lookup(newKey); exists {
			return fmt.Errorf("storage: %s: duplicate key %v for unique index %q",
				t.name, newKey, ix.Name())
		}
	}
	ws := t.clock.WriteSeq()
	for _, ix := range t.idxs() {
		oldKey, newKey := old.Key(ix.cols), validated.Key(ix.cols)
		if oldKey.Equal(newKey) {
			continue
		}
		ix.remove(oldKey, id, ws)
		if err := ix.insert(newKey, id, ws); err != nil {
			panic("storage: index update failed after uniqueness pre-check: " + err.Error())
		}
	}
	nv := newRowVersion(validated, 0, ws, SeqInf)
	nv.next.Store(h)
	// Stamp the old head dead, then swing the head pointer. A reader at a
	// published sequence p < ws sees the old head as visible either way
	// (p < dead in both states) and the new version as pending-invisible.
	h.dead.Store(ws)
	s.head.Store(nv)
	t.deadVers.Add(1)
	t.residentBytes.Add(rowMemSize(validated))
	t.maybeGC()
	if undo != nil {
		undo.push(undoEntry{table: t, kind: undoUpdate, id: id})
	}
	return nil
}

// ---------- undo inverses ----------
//
// Rollback physically reverses the pending stamps, newest first, so an
// aborted transaction leaves no trace in any chain. Pending versions are
// invisible to snapshots throughout (their stamps exceed every published
// sequence), so each step is a single atomic store concurrent readers
// either see or don't — both states read consistently. Popped nodes are
// epoch-retired before reuse.

// undoInsert pops the version a pending Insert created. The row did not
// exist before the transaction, so the slot must hold exactly that version.
func (t *Table) undoInsert(id RowID) {
	s, ok := t.byID[id]
	if !ok {
		panic(fmt.Sprintf("storage: %s: undo of insert: row %d vanished", t.name, id))
	}
	h := s.head.Load()
	if h == nil || h.next.Load() != nil || h.dead.Load() != SeqInf {
		panic(fmt.Sprintf("storage: %s: undo of insert: row %d has unexpected chain", t.name, id))
	}
	row := h.payload.Load().row // pending versions are never evicted
	for _, ix := range t.idxs() {
		ix.eraseLive(row.Key(ix.cols), id)
	}
	s.head.Store(nil)
	delete(t.byID, id)
	t.live.Add(-1)
	t.residentBytes.Add(-rowMemSize(row))
	t.clock.Epochs().RetireVersion(h)
}

// undoDelete revives the version a pending Delete stamped (the RowID and
// its position in scan order are preserved — streams' FIFO order survives
// rollback).
func (t *Table) undoDelete(id RowID) {
	s, ok := t.byID[id]
	if !ok || s.head.Load() == nil {
		panic(fmt.Sprintf("storage: %s: undo of delete: row %d vanished", t.name, id))
	}
	h := s.head.Load()
	d := h.dead.Load()
	row := h.payload.Load().row // faulted hot by the Delete being undone
	for _, ix := range t.idxs() {
		ix.revive(row.Key(ix.cols), id, d)
	}
	h.dead.Store(SeqInf)
	t.live.Add(1)
	t.deadVers.Add(-1)
}

// undoUpdate pops the version a pending Update prepended and revives its
// predecessor.
func (t *Table) undoUpdate(id RowID) {
	s, ok := t.byID[id]
	if !ok {
		panic(fmt.Sprintf("storage: %s: undo of update: row %d vanished", t.name, id))
	}
	newV := s.head.Load()
	if newV == nil {
		panic(fmt.Sprintf("storage: %s: undo of update: row %d vanished", t.name, id))
	}
	oldV := newV.next.Load()
	if oldV == nil {
		panic(fmt.Sprintf("storage: %s: undo of update: row %d has no prior version", t.name, id))
	}
	newRow := newV.payload.Load().row
	oldRow := oldV.payload.Load().row // faulted hot by the Update being undone
	for _, ix := range t.idxs() {
		oldKey, newKey := oldRow.Key(ix.cols), newRow.Key(ix.cols)
		if oldKey.Equal(newKey) {
			continue
		}
		ix.eraseLive(newKey, id)
		ix.revive(oldKey, id, oldV.dead.Load())
	}
	s.head.Store(oldV)
	oldV.dead.Store(SeqInf)
	t.deadVers.Add(-1)
	t.residentBytes.Add(-rowMemSize(newRow))
	t.clock.Epochs().RetireVersion(newV)
}

// ---------- writer-view reads ----------

// Scan iterates live rows in insertion (RowID) order — the writer's view,
// including the running transaction's own uncommitted changes. The
// callback returns false to stop early and must not mutate the table.
// Evicted rows are resolved read-through without rehydrating the chain
// (and without setting the touch bit), so a full scan — a checkpoint,
// say — neither blows the memory budget nor flushes the hot set.
func (t *Table) Scan(fn func(id RowID, row types.Row) bool) {
	for _, s := range t.slots() {
		h := s.liveHead()
		if h == nil {
			continue
		}
		pl := h.payload.Load()
		row := pl.row
		if row == nil {
			row = t.readCold(pl.cold)
		}
		if !fn(s.id, row) {
			return
		}
	}
}

// ScanRows returns all live rows in insertion order (copied slice headers;
// rows themselves are shared and must not be mutated).
func (t *Table) ScanRows() []types.Row {
	out := make([]types.Row, 0, t.Count())
	t.Scan(func(_ RowID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Truncate removes every row. When undo is non-nil each removal is
// undoable.
func (t *Table) Truncate(undo *UndoLog) {
	ids := make([]RowID, 0, t.Count())
	t.Scan(func(id RowID, _ types.Row) bool { ids = append(ids, id); return true })
	for _, id := range ids {
		if err := t.Delete(id, undo); err != nil {
			panic("storage: truncate delete of live row failed: " + err.Error())
		}
	}
}

// ---------- snapshot reads ----------
//
// Every Snapshot* method runs lock-free: enter an epoch, walk the
// atomically published structures, capture payload pointers, exit the
// epoch, then resolve cold stubs and run callbacks outside it — page I/O
// and caller code never delay epoch advance more than a chunk. Callers
// must hold a snapshot pin (PartitionClock.AcquireSnapshot) so version GC
// and cold-slot frees cannot outrun them.

// SnapshotGet returns the row visible under id at sequence s. Safe from
// any goroutine.
func (t *Table) SnapshotGet(id RowID, seq Seq) (types.Row, bool) {
	em := t.clock.Epochs()
	g := em.Enter()
	s := slotByID(t.slots(), id)
	if s == nil {
		g.Exit()
		return nil, false
	}
	v := s.versionAt(seq)
	if v == nil {
		g.Exit()
		return nil, false
	}
	s.touch()
	pl := v.payload.Load()
	g.Exit()
	return t.resolveVersion(pl.row, pl.cold), true
}

// snapshotScanChunk bounds how many slots one epoch hold covers, so a
// large analytic scan cannot stall epoch advance (and therefore node
// reuse) for its whole duration.
const snapshotScanChunk = 4096

// SnapshotScan iterates the rows visible at sequence s in insertion
// (RowID) order. Safe from any goroutine. The epoch is re-entered every
// snapshotScanChunk slots, resuming by RowID (the directory stays
// id-sorted across compaction); the view remains consistent because
// visibility is purely sequence-based — the caller's pin keeps every
// visible version alive, slots reclaimed between chunks held nothing
// visible at s, and slots appended between chunks hold only pending
// (invisible) versions. Visible payloads are captured per chunk and the
// callback runs outside the epoch, so stub resolution (cold page-in)
// never delays epoch advance; captured cold refs stay readable because
// the caller's pin keeps the watermark from passing them (see cold.go).
func (t *Table) SnapshotScan(seq Seq, fn func(id RowID, row types.Row) bool) {
	type hit struct {
		id  RowID
		row types.Row
		ref coldstore.Ref
	}
	em := t.clock.Epochs()
	var afterID RowID // resume: first slot with id > afterID
	buf := make([]hit, 0, 256)
	for {
		g := em.Enter()
		d := t.slots()
		lo := slotSearch(d, afterID+1)
		n := 0
		buf = buf[:0]
		for i := lo; i < len(d) && n < snapshotScanChunk; i++ {
			s := d[i]
			afterID = s.id
			n++
			if v := s.versionAt(seq); v != nil {
				pl := v.payload.Load()
				buf = append(buf, hit{id: s.id, row: pl.row, ref: pl.cold})
			}
		}
		done := lo+n >= len(d)
		g.Exit()
		for _, h := range buf {
			if !fn(h.id, t.resolveVersion(h.row, h.ref)) {
				return
			}
		}
		if done {
			return
		}
	}
}

// DeltaScan reports the visible difference between two published
// sequences, in insertion (RowID) order: for every version born in
// (from, to] and still visible at to, fn is called with born=true; for
// every version visible at from but dead by to, fn is called with
// born=false (its row image is the from-visible one). An update surfaces
// as a death of the old image and a birth of the new; a version both born
// and dead inside the interval is invisible at both ends and skipped.
// Used by slot migration's catch-up: the bulk copy runs at from, the
// cutover applies the delta up to to at a quiescent barrier, where the
// writer is parked — one epoch hold for the whole walk is harmless there.
func (t *Table) DeltaScan(from, to Seq, fn func(id RowID, row types.Row, born bool) bool) {
	g := t.clock.Epochs().Enter()
	defer g.Exit()
	for _, s := range t.slots() {
		atFrom := s.versionAt(from)
		atTo := s.versionAt(to)
		// Version identity (not row identity) decides "same image": an
		// evicted version's row is nil until resolved.
		if atFrom != nil && atFrom != atTo {
			pl := atFrom.payload.Load()
			if !fn(s.id, t.resolveVersion(pl.row, pl.cold), false) {
				return
			}
		}
		if atTo != nil && atFrom != atTo {
			pl := atTo.payload.Load()
			if !fn(s.id, t.resolveVersion(pl.row, pl.cold), true) {
				return
			}
		}
	}
}

// SnapshotRows returns every row visible at sequence s in insertion order.
func (t *Table) SnapshotRows(seq Seq) []types.Row {
	var out []types.Row
	t.SnapshotScan(seq, func(_ RowID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// SnapshotLookup returns the rows indexed under exactly key in ix, as
// visible at sequence s. ix must be an index of this table. Stubs are
// resolved outside the epoch.
func (t *Table) SnapshotLookup(ix *Index, key types.Row, seq Seq) []types.Row {
	g := t.clock.Epochs().Enter()
	d := t.slots()
	var out []types.Row
	var refs []coldstore.Ref // cold refs, paired with nil entries in out
	for _, id := range ix.lookupAt(key, seq) {
		if s := slotByID(d, id); s != nil {
			if v := s.versionAt(seq); v != nil {
				s.touch()
				pl := v.payload.Load()
				out = append(out, pl.row)
				refs = append(refs, pl.cold)
			}
		}
	}
	g.Exit()
	for i, r := range out {
		if r == nil {
			out[i] = t.readCold(refs[i])
		}
	}
	return out
}

// SnapshotRange iterates (key, row) pairs with lo <= key <= hi in key
// order as visible at sequence s. A nil bound is unbounded on that side.
// Requires an ordered index of this table. The skiplist walk has no
// stable resume token, so one epoch hold covers the whole range — a wide
// range delays epoch advance (memory reuse) for the walk's duration but,
// unlike the old read-lock, never delays the writer. Pairs are captured
// in the epoch and emitted (with cold page-in) outside it.
func (t *Table) SnapshotRange(ix *Index, lo, hi types.Row, seq Seq, fn func(key types.Row, row types.Row) bool) error {
	if !ix.ordered {
		return fmt.Errorf("index %q: range scan on hash index", ix.name)
	}
	// A one-column key is copied into the hit: it lives inline in its
	// skiplist node, which may be reused once the epoch is left. Wider
	// keys are separate immutable clones and are kept by reference.
	type hit struct {
		key types.Row
		k1  [1]types.Value
		row types.Row
		ref coldstore.Ref
	}
	var hits []hit
	g := t.clock.Epochs().Enter()
	d := t.slots()
	ix.sl.scanAt(lo, hi, seq, func(key types.Row, id RowID) bool {
		s := slotByID(d, id)
		if s == nil {
			return true
		}
		v := s.versionAt(seq)
		if v == nil {
			return true
		}
		pl := v.payload.Load()
		h := hit{row: pl.row, ref: pl.cold}
		if len(key) == 1 {
			h.k1[0] = key[0]
		} else {
			h.key = key
		}
		hits = append(hits, h)
		return true
	})
	g.Exit()
	for i := range hits {
		h := &hits[i]
		key := h.key
		if key == nil {
			key = h.k1[:]
		}
		if !fn(key, t.resolveVersion(h.row, h.ref)) {
			return nil
		}
	}
	return nil
}

// ---------- staged versions (slot migration) ----------
//
// Slot migration bulk-copies a slot's rows into the target partition while
// both partitions keep serving traffic. The copies must not be visible on
// the target before the atomic cutover — a fan-out query snapshotting both
// partitions mid-copy would count every copied row twice. Staged versions
// solve this: the row occupies a heap slot and a RowID but its visibility
// interval is empty, so neither snapshot readers nor the writer view see
// it. CommitStaged flips every staged version live in one critical
// section at the cutover barrier.

// seqStaged stamps a staged version: born == dead is an empty visibility
// interval, so versionAt never returns it and liveHead (dead == SeqInf) is
// nil. The value exceeds every publishable sequence, so GC
// (dead <= watermark) never reclaims a staged version by accident.
const seqStaged Seq = SeqInf - 1

// isStaged reports whether the slot holds a staged (not yet committed)
// copy. Staged slots hold exactly one version: invisible rows cannot be
// updated or deleted by normal operations.
func (s *rowSlot) isStaged() bool {
	h := s.head.Load()
	return h != nil && h.born.Load() == seqStaged && h.next.Load() == nil
}

// StageInsert validates and stores a row as a staged version — present in
// the heap, absent from every index, invisible at every sequence. Must run
// on the partition worker goroutine (migration batches ride RunExclusive),
// preserving the single-mutator invariant the lock-free structures depend
// on. Uniqueness is checked by PrecheckStaged at cutover, not here.
func (t *Table) StageInsert(row types.Row) (RowID, error) {
	validated, err := t.schema.ValidateRow(row)
	if err != nil {
		return 0, err
	}
	id := t.nextID
	t.nextID++
	s := &rowSlot{id: id}
	s.head.Store(newRowVersion(validated, 0, seqStaged, seqStaged))
	t.byID[id] = s
	t.appendSlot(s)
	t.staged.Add(1)
	t.residentBytes.Add(rowMemSize(validated))
	return id, nil
}

// Unstage discards one staged row (catch-up saw the source row die during
// the copy). Worker-only.
func (t *Table) Unstage(id RowID) error {
	s, ok := t.byID[id]
	if !ok || !s.isStaged() {
		return fmt.Errorf("storage: %s: unstage of non-staged row %d", t.name, id)
	}
	h := s.head.Load()
	t.residentBytes.Add(-rowMemSize(h.payload.Load().row))
	s.head.Store(nil)
	delete(t.byID, id)
	t.staged.Add(-1)
	t.clock.Epochs().RetireVersion(h)
	return nil
}

// StagedCount reports the number of staged rows.
func (t *Table) StagedCount() int { return int(t.staged.Load()) }

// StagedRows returns the staged rows in insertion order — the migration
// logs exactly these images in its prepare record before committing.
// Worker/barrier-only.
func (t *Table) StagedRows() []types.Row {
	out := make([]types.Row, 0, t.StagedCount())
	for _, s := range t.slots() {
		if s.isStaged() {
			out = append(out, s.head.Load().payload.Load().row)
		}
	}
	return out
}

// PrecheckStaged verifies that flipping every staged row live would violate
// no unique constraint — against existing live rows and among the staged
// rows themselves. The migration calls it at the cutover barrier BEFORE
// writing its commit record: once the record is durable the flip must not
// be able to fail. The check stays valid through CommitStaged because the
// barrier parks every writer.
func (t *Table) PrecheckStaged() error {
	if t.StagedCount() == 0 {
		return nil
	}
	for _, ix := range t.idxs() {
		if !ix.unique {
			continue
		}
		seen := make(map[uint64][]types.Row, t.StagedCount())
		for _, s := range t.slots() {
			if !s.isStaged() {
				continue
			}
			key := s.head.Load().payload.Load().row.Key(ix.cols)
			if _, exists := ix.Lookup(key); exists {
				return fmt.Errorf("storage: %s: staged row collides on key %v of unique index %q",
					t.name, key, ix.Name())
			}
			h := key.Hash()
			for _, prev := range seen[h] {
				if prev.Equal(key) {
					return fmt.Errorf("storage: %s: two staged rows share key %v of unique index %q",
						t.name, key, ix.Name())
				}
			}
			seen[h] = append(seen[h], key)
		}
	}
	return nil
}

// CommitStaged flips every staged version live at the pending sequence and
// inserts its index entries; the rows become visible when the clock next
// publishes. Callers must have run PrecheckStaged under the same exclusive
// barrier — a constraint violation here is a protocol bug, not an error.
func (t *Table) CommitStaged() int {
	ws := t.clock.WriteSeq()
	flipped := 0
	for _, s := range t.slots() {
		if !s.isStaged() {
			continue
		}
		h := s.head.Load()
		row := h.payload.Load().row
		// Flip dead first: [seqStaged, SeqInf) is still empty for every
		// published sequence, so a concurrent reader never sees a
		// half-flipped interval as visible.
		h.dead.Store(SeqInf)
		h.born.Store(ws)
		for _, ix := range t.idxs() {
			if err := ix.insert(row.Key(ix.cols), s.id, ws); err != nil {
				panic("storage: staged index insert failed after precheck: " + err.Error())
			}
		}
		t.live.Add(1)
		flipped++
	}
	t.staged.Add(-int64(flipped))
	return flipped
}

// DropStaged discards every staged row (aborted migration). Worker-only.
func (t *Table) DropStaged() int {
	em := t.clock.Epochs()
	dropped := 0
	for _, s := range t.slots() {
		if !s.isStaged() {
			continue
		}
		h := s.head.Load()
		t.residentBytes.Add(-rowMemSize(h.payload.Load().row))
		s.head.Store(nil)
		delete(t.byID, s.id)
		em.RetireVersion(h)
		dropped++
	}
	t.staged.Add(-int64(dropped))
	return dropped
}

// ---------- version garbage collection ----------

// maybeGC runs an inline sweep once dead versions dominate — the
// multi-version analogue of tombstone compaction, bounded by the snapshot
// watermark so pinned readers keep their view. Worker-only.
func (t *Table) maybeGC() {
	dead := int(t.deadVers.Load())
	if dead < 64 || dead <= len(t.slots())/2 || dead < t.gcMinDead {
		return
	}
	t.gcSweep(t.clock.Watermark())
}

// GC reclaims every version and index entry dead at or below watermark and
// compacts away emptied slots, returning the number of row versions
// reclaimed and retained. Call from the partition worker (or any quiescent
// point): it is a mutation. Concurrent snapshot readers are undisturbed —
// unlinked nodes stay intact until their epoch grace period ends. A table
// with no dead stamps has nothing to sweep and returns in O(1), so
// periodic sweeps cost mostly-read tables nothing.
func (t *Table) GC(watermark Seq) (reclaimed, retained int) {
	if t.deadVers.Load() == 0 {
		return 0, t.Count()
	}
	return t.gcSweep(watermark)
}

// gcSweep is GC's body. A version is reclaimable iff its dead stamp is at
// or below the watermark: no pinned snapshot (all at or above the
// watermark) and no future one can see it. Pending stamps exceed the
// current sequence and therefore the watermark, so an in-flight
// transaction's chain entries — which undo may still need — are never
// touched. Chains are newest-first with monotonically decreasing stamps,
// so the reclaimable versions form a suffix: one atomic store cuts the
// chain, and a straggling reader past the cut finishes on intact retired
// nodes.
func (t *Table) gcSweep(watermark Seq) (reclaimed, retained int) {
	em := t.clock.Epochs()
	d := t.slots()
	dropped := 0
	for _, s := range d {
		head := s.head.Load()
		if head == nil {
			dropped++ // emptied by undo/unstage; rebuild discards it
			continue
		}
		if head.dead.Load() <= watermark {
			// The newest version is reclaimable, so the whole chain is:
			// the slot is a fully expired tombstone.
			for v := head; v != nil; v = v.next.Load() {
				reclaimed++
				t.reclaimVersion(v, em)
			}
			s.head.Store(nil)
			delete(t.byID, s.id)
			dropped++
			continue
		}
		kept := 1
		pred := head
		for {
			v := pred.next.Load()
			if v == nil {
				break
			}
			if v.dead.Load() <= watermark {
				pred.next.Store(nil)
				for ; v != nil; v = v.next.Load() {
					reclaimed++
					t.reclaimVersion(v, em)
				}
				break
			}
			pred = v
			kept++
		}
		retained += kept
	}
	if dropped > 0 {
		nd := make([]*rowSlot, 0, len(d)-dropped)
		for _, s := range d {
			if s.head.Load() != nil {
				nd = append(nd, s)
			}
		}
		t.dir.Store(&nd)
		if t.evictCursor > len(nd) {
			t.evictCursor = 0
		}
	}
	t.deadVers.Add(int64(-reclaimed))
	t.gcMinDead = int(t.deadVers.Load()) * 2
	for _, ix := range t.idxs() {
		ix.gc(watermark)
	}
	return reclaimed, retained
}

// reclaimVersion settles a reclaimed version's ledger entry and retires
// the node. A reclaimed stub's cold slot can be freed immediately: the
// version is invisible at the watermark and every active pin is at or
// above it, so no reader can hold its ref.
func (t *Table) reclaimVersion(v *rowVersion, em *EpochManager) {
	pl := v.payload.Load()
	if pl.cold != 0 {
		t.cold.Free(pl.cold)
		t.coldVers.Add(-1)
	} else {
		t.residentBytes.Add(-rowMemSize(pl.row))
	}
	em.RetireVersion(v)
}

// VersionStats reports the total retained versions and how many of them
// are dead (awaiting the watermark) — the version-chain gauges. Safe from
// any goroutine.
func (t *Table) VersionStats() (versions, dead int) {
	g := t.clock.Epochs().Enter()
	for _, s := range t.slots() {
		for v := s.head.Load(); v != nil; v = v.next.Load() {
			versions++
		}
	}
	g.Exit()
	return versions, int(t.deadVers.Load())
}
