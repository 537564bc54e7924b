package ee

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/types"
)

func newTestEngine(t testing.TB, ddl string) *Engine {
	t.Helper()
	e := New(catalog.New(), &metrics.Metrics{})
	if ddl != "" {
		if err := e.ExecScript(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func freshCtx() *ExecCtx {
	return &ExecCtx{Undo: storage.NewUndoLog()}
}

func mustExec(t testing.TB, e *Engine, ctx *ExecCtx, q string, params ...types.Value) *Result {
	t.Helper()
	res, err := e.ExecSQL(ctx, q, params...)
	if err != nil {
		t.Fatalf("ExecSQL(%q): %v", q, err)
	}
	return res
}

const demoSchema = `
	CREATE TABLE contestants (id INT PRIMARY KEY, name VARCHAR NOT NULL, active BOOLEAN DEFAULT TRUE);
	CREATE TABLE votes (phone BIGINT PRIMARY KEY, candidate INT NOT NULL, ts BIGINT);
	CREATE INDEX votes_by_candidate ON votes (candidate);
`

func seedDemo(t testing.TB, e *Engine, ctx *ExecCtx) {
	t.Helper()
	names := []string{"alice", "bob", "carol", "dave"}
	for i, n := range names {
		mustExec(t, e, ctx, "INSERT INTO contestants (id, name) VALUES (?, ?)",
			types.NewInt(int64(i+1)), types.NewString(n))
	}
	// 10 votes: candidate = phone%4 + 1
	for p := int64(100); p < 110; p++ {
		mustExec(t, e, ctx, "INSERT INTO votes VALUES (?, ?, ?)",
			types.NewInt(p), types.NewInt(p%4+1), types.NewInt(p))
	}
}

func TestInsertSelectBasic(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	res := mustExec(t, e, ctx, "SELECT id, name FROM contestants ORDER BY id")
	if len(res.Rows) != 4 || res.Rows[0][1].Str() != "alice" {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Columns[0] != "id" || res.Columns[1] != "name" {
		t.Errorf("columns: %v", res.Columns)
	}
	// default applied
	res = mustExec(t, e, ctx, "SELECT active FROM contestants WHERE id = 1")
	if !res.Rows[0][0].Bool() {
		t.Error("DEFAULT TRUE not applied")
	}
}

func TestWhereAndParams(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	res := mustExec(t, e, ctx, "SELECT phone FROM votes WHERE candidate = ? ORDER BY phone", types.NewInt(2))
	if len(res.Rows) != 3 { // phones 101,105,109 -> %4+1=2
		t.Fatalf("rows: %v", res.Rows)
	}
	res = mustExec(t, e, ctx, "SELECT phone FROM votes WHERE phone BETWEEN 103 AND 105 ORDER BY phone")
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 103 {
		t.Fatalf("between: %v", res.Rows)
	}
	res = mustExec(t, e, ctx, "SELECT name FROM contestants WHERE name LIKE 'a%'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "alice" {
		t.Fatalf("like: %v", res.Rows)
	}
	res = mustExec(t, e, ctx, "SELECT name FROM contestants WHERE id IN (1, 3) ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[1][0].Str() != "carol" {
		t.Fatalf("in: %v", res.Rows)
	}
}

func TestJoinInnerAndLeft(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	// Inner join with index probe on votes_by_candidate.
	res := mustExec(t, e, ctx, `
		SELECT c.name, v.phone FROM contestants c
		JOIN votes v ON v.candidate = c.id
		WHERE c.id = 1 ORDER BY v.phone`)
	if len(res.Rows) != 3 { // 100,104,108
		t.Fatalf("join rows: %v", res.Rows)
	}
	// Left join keeps unmatched contestants.
	mustExec(t, e, ctx, "INSERT INTO contestants (id, name) VALUES (9, 'zoe')")
	res = mustExec(t, e, ctx, `
		SELECT c.name, v.phone FROM contestants c
		LEFT JOIN votes v ON v.candidate = c.id
		WHERE c.id = 9`)
	if len(res.Rows) != 1 || !res.Rows[0][1].IsNull() {
		t.Fatalf("left join: %v", res.Rows)
	}
}

func TestAggregation(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	res := mustExec(t, e, ctx, `
		SELECT candidate, COUNT(*) AS n, MIN(phone), MAX(phone)
		FROM votes GROUP BY candidate ORDER BY n DESC, candidate`)
	if len(res.Rows) != 4 {
		t.Fatalf("groups: %v", res.Rows)
	}
	// candidates 1 and 2 have 3 votes, 3 and 4 have 2
	if res.Rows[0][1].Int() != 3 || res.Rows[3][1].Int() != 2 {
		t.Fatalf("counts: %v", res.Rows)
	}
	// global aggregate over empty input
	res = mustExec(t, e, ctx, "SELECT COUNT(*), SUM(phone), AVG(phone) FROM votes WHERE candidate = 99")
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Fatalf("empty aggregates: %v", res.Rows)
	}
	// HAVING
	res = mustExec(t, e, ctx, `
		SELECT candidate FROM votes GROUP BY candidate HAVING COUNT(*) > 2 ORDER BY candidate`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 2 {
		t.Fatalf("having: %v", res.Rows)
	}
	// AVG value
	res = mustExec(t, e, ctx, "SELECT AVG(phone) FROM votes")
	if got := res.Rows[0][0].Float(); got != 104.5 {
		t.Fatalf("avg = %v", got)
	}
	// COUNT(DISTINCT)
	res = mustExec(t, e, ctx, "SELECT COUNT(DISTINCT candidate) FROM votes")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("count distinct: %v", res.Rows)
	}
}

func TestGroupByValidation(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	if _, err := e.ExecSQL(ctx, "SELECT phone, COUNT(*) FROM votes GROUP BY candidate"); err == nil {
		t.Error("non-grouped column accepted")
	}
}

func TestOrderLimitOffsetDistinct(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	res := mustExec(t, e, ctx, "SELECT phone FROM votes ORDER BY phone DESC LIMIT 2 OFFSET 1")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 108 || res.Rows[1][0].Int() != 107 {
		t.Fatalf("limit/offset: %v", res.Rows)
	}
	res = mustExec(t, e, ctx, "SELECT DISTINCT candidate FROM votes ORDER BY candidate")
	if len(res.Rows) != 4 {
		t.Fatalf("distinct: %v", res.Rows)
	}
	// ORDER BY alias
	res = mustExec(t, e, ctx, "SELECT phone * 2 AS dbl FROM votes ORDER BY dbl LIMIT 1")
	if res.Rows[0][0].Int() != 200 {
		t.Fatalf("alias order: %v", res.Rows)
	}
	// LIMIT via parameter
	res = mustExec(t, e, ctx, "SELECT phone FROM votes LIMIT ?", types.NewInt(3))
	if len(res.Rows) != 3 {
		t.Fatalf("param limit: %v", res.Rows)
	}
}

func TestUpdateDeleteSQL(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	res := mustExec(t, e, ctx, "UPDATE votes SET candidate = 1 WHERE candidate = 2")
	if res.RowsAffected != 3 {
		t.Fatalf("update affected %d", res.RowsAffected)
	}
	res = mustExec(t, e, ctx, "SELECT COUNT(*) FROM votes WHERE candidate = 1")
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("post-update count: %v", res.Rows)
	}
	res = mustExec(t, e, ctx, "DELETE FROM votes WHERE candidate = 1")
	if res.RowsAffected != 6 {
		t.Fatalf("delete affected %d", res.RowsAffected)
	}
	if mustExec(t, e, ctx, "SELECT COUNT(*) FROM votes").Rows[0][0].Int() != 4 {
		t.Fatal("wrong remaining count")
	}
}

func TestInsertSelectInto(t *testing.T) {
	e := newTestEngine(t, demoSchema+`CREATE TABLE arch (phone BIGINT, candidate INT);`)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	res := mustExec(t, e, ctx, "INSERT INTO arch SELECT phone, candidate FROM votes WHERE candidate = 1")
	if res.RowsAffected != 3 {
		t.Fatalf("insert-select: %d", res.RowsAffected)
	}
}

func TestConstraintViolationAndStatementAtomicity(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	// Multi-row insert where the second row violates the PK: the whole
	// statement must roll back, earlier rows included.
	_, err := e.ExecSQL(ctx, "INSERT INTO votes VALUES (200, 1, 0), (100, 1, 0)")
	if err == nil {
		t.Fatal("duplicate accepted")
	}
	res := mustExec(t, e, ctx, "SELECT COUNT(*) FROM votes WHERE phone = 200")
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("statement not atomic: partial insert survived")
	}
}

func TestTxnRollbackRestoresEverything(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	setup := freshCtx()
	seedDemo(t, e, setup)
	ctx := freshCtx()
	mustExec(t, e, ctx, "UPDATE votes SET candidate = 9 WHERE candidate = 1")
	mustExec(t, e, ctx, "DELETE FROM contestants WHERE id = 2")
	mustExec(t, e, ctx, "INSERT INTO contestants (id, name) VALUES (50, 'extra')")
	ctx.Undo.Rollback()
	check := freshCtx()
	if mustExec(t, e, check, "SELECT COUNT(*) FROM votes WHERE candidate = 9").Rows[0][0].Int() != 0 {
		t.Error("update not rolled back")
	}
	if mustExec(t, e, check, "SELECT COUNT(*) FROM contestants").Rows[0][0].Int() != 4 {
		t.Error("insert/delete not rolled back")
	}
}

func TestScalarFunctions(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (x INT, s VARCHAR)")
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO t VALUES (-5, 'Hello')")
	res := mustExec(t, e, ctx,
		"SELECT ABS(x), LENGTH(s), UPPER(s), LOWER(s), COALESCE(NULL, x), SQRT(16.0) FROM t")
	r := res.Rows[0]
	if r[0].Int() != 5 || r[1].Int() != 5 || r[2].Str() != "HELLO" || r[3].Str() != "hello" ||
		r[4].Int() != -5 || r[5].Float() != 4 {
		t.Fatalf("row: %v", r)
	}
	res = mustExec(t, e, ctx, "SELECT CASE WHEN x < 0 THEN 'neg' ELSE 'pos' END FROM t")
	if res.Rows[0][0].Str() != "neg" {
		t.Fatalf("case: %v", res.Rows)
	}
	if _, err := e.ExecSQL(ctx, "SELECT NOSUCHFN(x) FROM t"); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (x INT, y INT)")
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO t VALUES (1, NULL), (2, 5), (NULL, NULL)")
	// NULL comparisons filter out
	if n := len(mustExec(t, e, ctx, "SELECT x FROM t WHERE y > 1").Rows); n != 1 {
		t.Errorf("null filter: %d", n)
	}
	if n := len(mustExec(t, e, ctx, "SELECT x FROM t WHERE y IS NULL").Rows); n != 2 {
		t.Errorf("is null: %d", n)
	}
	// x = NULL is never true
	if n := len(mustExec(t, e, ctx, "SELECT x FROM t WHERE x = NULL").Rows); n != 0 {
		t.Errorf("= NULL: %d", n)
	}
	// OR with NULL on one side can still be true
	if n := len(mustExec(t, e, ctx, "SELECT x FROM t WHERE x = 1 OR y > 100").Rows); n != 1 {
		t.Errorf("or: %d", n)
	}
}

func TestDivisionByZero(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (x INT)")
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO t VALUES (1)")
	if _, err := e.ExecSQL(ctx, "SELECT x / 0 FROM t"); err == nil {
		t.Error("int division by zero accepted")
	}
	if _, err := e.ExecSQL(ctx, "SELECT x / 0.0 FROM t"); err == nil {
		t.Error("float division by zero accepted")
	}
}

func TestIndexSelectionUsed(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	p, err := e.Prepare("SELECT phone FROM votes WHERE phone = ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.sel.src.base.index == nil || p.sel.src.base.index.Name() != "votes_pkey" {
		t.Error("pk equality should use the primary index")
	}
	p, err = e.Prepare("SELECT phone FROM votes WHERE candidate = ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.sel.src.base.index == nil || p.sel.src.base.index.Name() != "votes_by_candidate" {
		t.Error("candidate equality should use the secondary index")
	}
	p, err = e.Prepare("SELECT phone FROM votes WHERE phone BETWEEN ? AND ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.sel.src.base.index == nil || p.sel.src.base.eqKey != nil {
		t.Error("between should use a range access path")
	}
	// Join probe: inner table keyed by outer column.
	p, err = e.Prepare("SELECT c.name FROM votes v JOIN contestants c ON c.id = v.candidate", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.sel.src.joins[0].access.index == nil {
		t.Error("join should probe contestants_pkey")
	}
}

func TestRangeScanExclusiveBounds(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	res := mustExec(t, e, ctx, "SELECT phone FROM votes WHERE phone > 103 AND phone < 106 ORDER BY phone")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 104 || res.Rows[1][0].Int() != 105 {
		t.Fatalf("exclusive range: %v", res.Rows)
	}
}

func TestDDLErrors(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	if err := e.ExecScript("CREATE TABLE votes (x INT)"); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := e.ExecScript("CREATE TABLE IF NOT EXISTS votes (x INT)"); err != nil {
		t.Errorf("IF NOT EXISTS: %v", err)
	}
	if err := e.ExecScript("CREATE INDEX bad ON votes (nope)"); err == nil {
		t.Error("bad index column accepted")
	}
	if err := e.ExecScript("DROP TABLE nonexistent"); err == nil {
		t.Error("drop missing accepted")
	}
	if err := e.ExecScript("DROP TABLE IF EXISTS nonexistent"); err != nil {
		t.Errorf("drop if exists: %v", err)
	}
	ctx := freshCtx()
	if _, err := e.ExecSQL(ctx, "SELECT x FROM nonexistent"); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Errorf("missing relation error: %v", err)
	}
}

func TestReadOnlyContext(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	ctx.ReadOnly = true
	if _, err := e.ExecSQL(ctx, "INSERT INTO contestants (id, name) VALUES (1, 'x')"); err == nil {
		t.Error("insert in read-only ctx accepted")
	}
	if _, err := e.ExecSQL(ctx, "SELECT * FROM contestants"); err != nil {
		t.Errorf("read in read-only ctx: %v", err)
	}
}

// TestFilterLeavesTransientBatchIntact: a filtered SELECT over a trigger's
// NEW relation must not compact the batch in place — later statements of
// the same trigger (and the partition engine, which logs a procedure's
// input batch) still read it whole.
func TestFilterLeavesTransientBatchIntact(t *testing.T) {
	e := newTestEngine(t, `
		CREATE STREAM s (v BIGINT);
		CREATE TABLE big (v BIGINT);
		CREATE TABLE everything (v BIGINT);`)
	if err := e.CreateTrigger("split", "s",
		"INSERT INTO big SELECT v FROM new WHERE v > 1",
		"INSERT INTO everything SELECT v FROM new"); err != nil {
		t.Fatal(err)
	}
	ctx := freshCtx()
	batch := []types.Row{{types.NewInt(1)}, {types.NewInt(2)}, {types.NewInt(3)}}
	if _, err := e.InsertRows(ctx, "s", batch); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, ctx, "SELECT v FROM everything ORDER BY v")
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 2 || res.Rows[2][0].Int() != 3 {
		t.Fatalf("second trigger statement read %v, want (1) (2) (3)", res.Rows)
	}
	if n := mustExec(t, e, ctx, "SELECT COUNT(*) FROM big").Rows[0][0].Int(); n != 2 {
		t.Fatalf("big has %d rows, want 2", n)
	}
}
