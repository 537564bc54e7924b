package storage

import (
	"unsafe"

	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// Anti-caching layer (DESIGN.md §7). Tables attached to a coldstore can
// evict committed row versions older than the snapshot watermark out of
// their in-memory version chains into cold pages, leaving a stub: the
// rowVersion keeps its born/dead stamps (visibility never needs disk)
// but its payload becomes {row: nil, cold: ref}. Eviction and
// rehydration are each one atomic payload-pointer store, so concurrent
// lock-free readers always see a whole payload — resident or stub,
// never torn. Readers that hit a stub fault the tuple back in through
// the buffer pool:
//
//   - The partition worker (writer view: Get, Update, Delete) faults
//     synchronously and reinstalls the row in the chain, so a tuple the
//     writer touches turns hot again. The superseded cold slot is freed
//     only after the watermark passes the rehydration point, because a
//     snapshot reader may have captured the stub payload before the
//     reinstall.
//   - Snapshot readers resolve stubs read-through: they capture the
//     payload inside their epoch, leave it, and decode from the buffer
//     pool privately — page I/O never delays the writer or epoch
//     advance, and never mutates the chain.
//
// Eviction itself runs only on the partition worker (at GC rhythm), so
// the single-mutator invariant covers stubbing out versions too. Index
// entries are untouched by eviction: they carry their own key copies
// and only reference RowIDs.

// rowMemSize estimates the heap footprint of a resident row: slice
// header + per-value struct + string payloads. It has to be consistent
// between the insert and evict sides of the ledger, and follows the
// Value layout so Config.MemoryBudget keeps meaning bytes.
func rowMemSize(r types.Row) int64 {
	n := int64(24)
	for _, v := range r {
		n += int64(unsafe.Sizeof(v))
		if v.Type() == types.TypeString {
			n += int64(len(v.Str()))
		}
	}
	return n
}

// AttachColdStore wires the partition's shared cold store to the table,
// making it evictable. Call before the table serves traffic (catalog
// creation or recovery setup).
func (t *Table) AttachColdStore(cs *coldstore.Store) {
	t.cold = cs
}

// Evictable reports whether a cold store is attached.
func (t *Table) Evictable() bool { return t.cold != nil }

// ResidentBytes returns the approximate heap bytes of in-memory row
// versions (stubs excluded) — the quantity the evictor works to keep
// under budget.
func (t *Table) ResidentBytes() int64 { return t.residentBytes.Load() }

// ColdStats reports evicted-version and fault counters.
func (t *Table) ColdStats() (coldVersions int, evictions, faults uint64) {
	return int(t.coldVers.Load()), t.coldEvictions.Load(), t.coldFaults.Load()
}

// readCold resolves a stub read-through: decode the tuple from the
// buffer pool without touching the version chain. Safe from any
// goroutine; must not be called inside an epoch guard (pool I/O can
// block, stalling epoch advance). Failure here means the anti-caching
// invariants broke (a ref freed while still reachable, or a torn page)
// — not a recoverable condition.
func (t *Table) readCold(ref coldstore.Ref) types.Row {
	t.coldFaults.Add(1)
	view, release, err := t.cold.View(ref)
	if err != nil {
		panic("storage: " + t.name + ": cold fault: " + err.Error())
	}
	row, _, derr := types.DecodeRow(view)
	release()
	if derr != nil {
		panic("storage: " + t.name + ": cold tuple decode: " + derr.Error())
	}
	return row
}

// resolveVersion returns the row image of a captured payload, faulting
// read-through when evicted. Call outside any epoch guard.
func (t *Table) resolveVersion(row types.Row, ref coldstore.Ref) types.Row {
	if row != nil || ref == 0 {
		return row
	}
	return t.readCold(ref)
}

// faultHead rehydrates the newest version of the slot into the chain and
// returns its row. Worker-only (single-mutator): the payload cannot
// change between the pool read and the reinstall, which is one atomic
// store. The superseded cold slot is deferred-freed at the current
// sequence — any snapshot reader that captured the stub payload holds a
// pin at or below it, so the slot outlives every such reader.
func (t *Table) faultHead(s *rowSlot) types.Row {
	v := s.head.Load()
	pl := v.payload.Load()
	if pl.row != nil {
		return pl.row
	}
	row := t.readCold(pl.cold)
	v.payload.Store(&versionPayload{row: row})
	t.residentBytes.Add(rowMemSize(row))
	t.coldVers.Add(-1)
	t.cold.DeferFree(pl.cold, uint64(t.clock.Current()))
	return row
}

// touch sets the slot's second-chance bit; the evictor clears it and
// skips the slot once before evicting. Set on point accesses (Get,
// snapshot point reads, faults) but not on full scans, so one analytic
// pass cannot flush the hot set.
func (s *rowSlot) touch() { s.touched.Store(1) }

// Evict moves committed row versions into the cold store until roughly
// `need` resident bytes are freed, round-robin from the last cursor
// position with one clock (second-chance) pass per slot. Only versions
// with born <= watermark qualify: they are published, stable (no undo
// can touch them), and identical on every replica's logical timeline.
// Worker-only. Each eviction is one atomic payload swap, so concurrent
// snapshot readers are never blocked and never see a torn version — a
// reader that captured the resident payload just before the swap keeps
// reading its row; one that captures the stub after it faults
// read-through.
func (t *Table) Evict(watermark Seq, need int64) (versions int, bytes int64) {
	if t.cold == nil || need <= 0 {
		return 0, 0
	}
	d := t.slots()
	scanned := 0
	for scanned < len(d) && bytes < need {
		if t.evictCursor >= len(d) {
			t.evictCursor = 0
		}
		s := d[t.evictCursor]
		t.evictCursor++
		scanned++
		if s.head.Load() == nil || s.isStaged() {
			continue
		}
		if s.touched.Load() == 1 {
			s.touched.Store(0) // second chance
			continue
		}
		for v := s.head.Load(); v != nil; v = v.next.Load() {
			pl := v.payload.Load()
			born := v.born.Load()
			if pl.row == nil || born > watermark || born == seqStaged {
				continue
			}
			t.encBuf = types.EncodeRow(t.encBuf[:0], pl.row)
			if len(t.encBuf) > t.cold.MaxTuple() {
				continue // oversized tuples stay hot
			}
			ref, err := t.cold.Put(t.encBuf)
			if err != nil {
				return versions, bytes // disk trouble: stop, stay hot
			}
			sz := rowMemSize(pl.row)
			v.payload.Store(&versionPayload{cold: ref})
			t.residentBytes.Add(-sz)
			t.coldVers.Add(1)
			t.coldEvictions.Add(1)
			versions++
			bytes += sz
		}
	}
	return versions, bytes
}

// ReleaseColdFrees frees cold slots whose deferred-free sequence the
// watermark has passed. Called at GC rhythm by the engine.
func (t *Table) ReleaseColdFrees(watermark Seq) {
	if t.cold == nil {
		return
	}
	t.cold.ReleaseFreed(uint64(watermark))
}
