package ee

import (
	"testing"

	"repro/internal/israce"
	"repro/internal/types"
)

// Allocation guards for the statement path through a reused ExecCtx, the
// way the partition worker runs it. The bounds are the counts measured
// when the statement scratch landed, and they only ratchet down: a change
// that needs a higher bound has put an allocation back on the hot path
// and must find another way, never raise the bound to pass.
//
// What remains per statement is what the statement keeps or returns: the
// Result, result rows and their slice, and the copies storage stores.

const allocsSchema = `
	CREATE TABLE contestants (id INT PRIMARY KEY, name VARCHAR NOT NULL);
	CREATE TABLE votes (phone BIGINT PRIMARY KEY, contestant INT NOT NULL, ts BIGINT);
	CREATE TABLE vote_counts (contestant INT PRIMARY KEY, n BIGINT DEFAULT 0);
`

func allocsEngine(t *testing.T) (*Engine, *ExecCtx) {
	t.Helper()
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := newTestEngine(t, allocsSchema)
	ctx := freshCtx()
	for c := int64(1); c <= 4; c++ {
		mustExec(t, e, ctx, "INSERT INTO contestants VALUES (?, ?)", types.NewInt(c), types.NewString("c"))
		mustExec(t, e, ctx, "INSERT INTO vote_counts (contestant, n) VALUES (?, 0)", types.NewInt(c))
	}
	ctx.Undo.Release()
	return e, ctx
}

// guardAllocs fails when fn allocates more than bound times per run.
func guardAllocs(t *testing.T, bound float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > bound {
		t.Fatalf("%.0f allocs per statement, bound %.0f", got, bound)
	}
}

func prepare(t *testing.T, e *Engine, q string) *Prepared {
	t.Helper()
	p, err := e.PrepareCached(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllocsPointSelect: the Result, its row slice, the projected row and
// the probe's source-row slice.
func TestAllocsPointSelect(t *testing.T) {
	e, ctx := allocsEngine(t)
	p := prepare(t, e, "SELECT id FROM contestants WHERE id = ?")
	guardAllocs(t, 4, func() {
		res, err := e.Execute(ctx, p, types.NewInt(2))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("select: %v %v", res, err)
		}
	})
}

// TestAllocsInsertRow: the Result and the seven allocations of
// storage.Table.Insert (see TestAllocsTableInsert). The row is built once,
// in statement scratch, and copied once by the table.
func TestAllocsInsertRow(t *testing.T) {
	e, ctx := allocsEngine(t)
	p := prepare(t, e, "INSERT INTO votes VALUES (?, ?, ?)")
	phone := int64(5_550_000_000)
	guardAllocs(t, 8, func() {
		phone++
		if _, err := e.Execute(ctx, p, types.NewInt(phone), types.NewInt(1), types.NewInt(phone)); err != nil {
			t.Fatal(err)
		}
		ctx.Undo.Release()
	})
}

// TestAllocsPKUpdate: the Result and the new version — the row copy the
// table keeps (the statement's new image is scratch), its payload, and a
// pooled version node.
func TestAllocsPKUpdate(t *testing.T) {
	e, ctx := allocsEngine(t)
	p := prepare(t, e, "UPDATE vote_counts SET n = n + 1 WHERE contestant = ?")
	guardAllocs(t, 4, func() {
		res, err := e.Execute(ctx, p, types.NewInt(3))
		if err != nil || res.RowsAffected != 1 {
			t.Fatalf("update: %v %v", res, err)
		}
		ctx.Undo.Release()
	})
}

// TestAllocsGroupedAggregate: a leaderboard-shaped GROUP BY over 64 rows
// in four groups. Each row's grouping key is evaluated into context
// scratch, so the count follows the groups, not the input rows: the scan's
// row slice, the group map and order list, per group its struct, key
// copy, aggregate states, map bucket and output row, then the ORDER BY
// projection, its sort and the Result.
func TestAllocsGroupedAggregate(t *testing.T) {
	e, ctx := allocsEngine(t)
	for phone := int64(1); phone <= 64; phone++ {
		mustExec(t, e, ctx, "INSERT INTO votes VALUES (?, ?, ?)", types.NewInt(phone), types.NewInt(phone%4+1), types.NewInt(phone))
	}
	ctx.Undo.Release()
	p := prepare(t, e, "SELECT contestant, COUNT(*) AS n FROM votes GROUP BY contestant ORDER BY n DESC, contestant ASC LIMIT 3")
	guardAllocs(t, 39, func() {
		res, err := e.Execute(ctx, p)
		if err != nil || len(res.Rows) != 3 {
			t.Fatalf("grouped aggregate: %v %v", res, err)
		}
	})
}
