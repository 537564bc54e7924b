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
