package core_test

import (
	"testing"

	"repro/internal/apps/voter"
	"repro/internal/core"
	"repro/internal/israce"
	"repro/internal/types"
)

// TestAllocsCastVote guards the whole statement path, client to storage:
// one cast_vote Call (two point SELECTs, an INSERT, an UPDATE) on a
// volatile 2-partition store. The partition worker reuses its execution
// and procedure contexts, statements run on context scratch, index keys
// are built on the stack, and the handler's variadic arguments stay on
// its stack — if ProcCtx.Exec's parameters start escaping again, this
// bound fails. What remains is the request and its reply, the four
// Results, the contestant row read back, and what the two written rows
// cost storage. The bound is the count measured when the scratch landed
// and only ratchets down — never raise it to pass.
func TestAllocsCastVote(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st := core.Open(core.Config{Partitions: 2})
	if err := voter.SetupOLTP(st, 6); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	phone := int64(5_550_000_000)
	got := testing.AllocsPerRun(500, func() {
		phone++
		if _, err := st.Call("cast_vote", types.NewInt(phone), types.NewInt(phone%6+1), types.NewInt(phone)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 22 {
		t.Fatalf("%.0f allocs per cast_vote call, bound 22", got)
	}
}

// TestAllocsPointQuery guards the dashboard's point read, a SELECT pinning
// the partition key, which runs on the key's owning partition alone: the
// caller's argument slice, the subquery check's expression list, the
// merge plan's shape check (two), the leg's source rows, projected row and
// result slice, and the two Results. The bound is the count measured when
// single-partition pruning landed and only ratchets down.
func TestAllocsPointQuery(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st := core.Open(core.Config{Partitions: 2})
	if err := voter.SetupOLTP(st, 6); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	const phone = 5_550_000_001
	if _, err := st.Call("cast_vote", types.NewInt(phone), types.NewInt(3), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		res, err := st.Query("SELECT contestant FROM votes WHERE phone = ?", types.NewInt(phone))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("point query: %v %v", res, err)
		}
	})
	if got > 9 {
		t.Fatalf("%.0f allocs per point query, bound 9", got)
	}
}
