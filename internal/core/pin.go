package core

// Session-scoped snapshot pins. The wire protocol's per-statement reads
// each pin a fresh MVCC snapshot, so two SELECTs in one client session can
// observe different committed states. A SnapshotPin holds one consistent
// cross-partition cut (the same seqMu-fenced vector querySelect pins per
// statement) for as long as the session wants it: every QueryPinned against
// the pin sees the identical state, and Release (or the server's
// disconnect cleanup) drops the GC hold.

import (
	"fmt"
	"sync"

	"repro/internal/pe"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// SnapshotPin is a held cross-partition snapshot: one pinned committed
// sequence per partition, taken atomically against 2PC publication. Pins
// hold the GC watermark on every partition — release them promptly.
type SnapshotPin struct {
	s     *Store
	parts []*partition
	pins  []storage.SnapPin

	mu       sync.Mutex // serializes queries on the pin and guards released
	released bool
}

// PinSnapshot acquires a snapshot pin at the latest committed cut.
func (s *Store) PinSnapshot() *SnapshotPin {
	s.seqMu.RLock()
	parts := s.partList()
	pins := make([]storage.SnapPin, len(parts))
	for i, p := range parts {
		pins[i] = p.pe.AcquireSnapshot()
	}
	s.seqMu.RUnlock()
	return &SnapshotPin{s: s, parts: parts, pins: pins}
}

// Release drops the pin. Idempotent.
func (pin *SnapshotPin) Release() {
	pin.mu.Lock()
	defer pin.mu.Unlock()
	if pin.released {
		return
	}
	pin.released = true
	for i, p := range pin.parts {
		p.pe.ReleaseSnapshot(pin.pins[i])
	}
}

// Seqs returns the pinned sequence vector (diagnostics, tests).
func (pin *SnapshotPin) Seqs() []storage.Seq {
	seqs := make([]storage.Seq, len(pin.pins))
	for i, p := range pin.pins {
		seqs[i] = p.Seq()
	}
	return seqs
}

// QueryPinned runs a SELECT against the pinned cut: repeated queries on one
// pin all observe the same committed state, regardless of concurrent
// writers. Non-SELECT statements are rejected — a pin is a read artifact.
// Queries on one pin serialize against each other and against Release.
func (s *Store) QueryPinned(pin *SnapshotPin, sqlText string, params ...types.Value) (*pe.Result, error) {
	if pin == nil || pin.s != s {
		return nil, fmt.Errorf("core: snapshot pin does not belong to this store")
	}
	stmt, err := sql.ParseCached(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("core: pinned queries must be SELECT statements")
	}
	// The pin's mutex is held for the whole read so a concurrent Release
	// (session teardown) cannot unpin sequences mid-scan.
	pin.mu.Lock()
	defer pin.mu.Unlock()
	if pin.released {
		return nil, fmt.Errorf("core: snapshot pin was released")
	}
	partitioned := false
	if len(pin.parts) > 1 {
		if partitioned, err = s.queryScope(sel); err != nil {
			return nil, err
		}
	}
	if !partitioned {
		s.routeMu.RLock()
		defer s.routeMu.RUnlock()
		return pin.parts[0].pe.QueryAtSeq(pin.pins[0].Seq(), sqlText, params...)
	}
	plan, legSQL, legParams, err := fanoutLeg(sel, sqlText, params)
	if err != nil {
		return nil, err
	}
	s.routeMu.RLock()
	results := make([]*pe.Result, len(pin.parts))
	errs := make([]error, len(pin.parts))
	runLegs(len(pin.parts), func(i int) {
		results[i], errs[i] = pin.parts[i].pe.QueryAtSeq(pin.pins[i].Seq(), legSQL, legParams...)
	})
	s.routeMu.RUnlock()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return plan.merge(sel, results, params)
}
