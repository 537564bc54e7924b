package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pe"
	"repro/internal/sql"
	"repro/internal/types"
)

const pruneDDL = `
	CREATE TABLE items (id BIGINT PRIMARY KEY, grp INT, v FLOAT) PARTITION BY id;
	CREATE TABLE partials (k INT PRIMARY KEY, n BIGINT) PARTITION BY k PARTIAL;
	CREATE TABLE ref (id INT PRIMARY KEY, name VARCHAR);
`

// forcedFanout runs a SELECT the way querySelect did before pruning: on
// every partition, merged.
func forcedFanout(s *Store, q string, params ...types.Value) (*pe.Result, error) {
	stmt, err := sql.ParseCached(q)
	if err != nil {
		return nil, err
	}
	sel := stmt.(*sql.Select)
	if _, err := s.queryScope(sel); err != nil {
		return nil, err
	}
	plan, err := mergePlan(sel, params)
	if err != nil {
		return nil, err
	}
	return s.queryFanout(sel, plan, q, params)
}

// TestPointQueryPruningMatchesFanout is the differential check of
// single-partition pruning: every statement returns what the forced
// fan-out returns (or fails as it fails), and exactly the qualifying
// statements run one leg instead of one per partition.
func TestPointQueryPruningMatchesFanout(t *testing.T) {
	const parts = 3
	st := Open(Config{Partitions: parts})
	if err := st.ExecScript(pruneDDL); err != nil {
		t.Fatal(err)
	}
	// put_partial writes a PARTIAL row on the partition its first
	// argument routes to, whatever the row's own key.
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "put_partial",
		WriteSet:       []string{"partials"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO partials VALUES (?, ?)", ctx.Params[1], ctx.Params[2])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	// Key 2 of the PARTIAL table gets a row on every partition.
	for p, route := 0, int64(0); p < parts; route++ {
		if st.partitionFor(types.NewInt(route)) != p {
			continue
		}
		if _, err := st.Call("put_partial", types.NewInt(route), types.NewInt(2), types.NewInt(int64(p+1))); err != nil {
			t.Fatal(err)
		}
		p++
	}
	for id := int64(1); id <= 120; id++ {
		if _, err := st.Exec("INSERT INTO items VALUES (?, ?, ?)",
			types.NewInt(id), types.NewInt(id%4), types.NewFloat(float64(id)/2)); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 4; k++ {
		if k != 2 {
			if _, err := st.Exec("INSERT INTO partials VALUES (?, ?)", types.NewInt(k), types.NewInt(10*k)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Exec("INSERT INTO ref VALUES (?, ?)", types.NewInt(k), types.NewString(fmt.Sprint("g", k))); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		q       string
		params  []types.Value
		pruned  bool
		wantErr bool
		rows    int // -1: not checked
	}{
		{q: "SELECT grp, v FROM items WHERE id = 17", pruned: true, rows: 1},
		{q: "SELECT grp, v FROM items WHERE id = ?", params: []types.Value{types.NewInt(17)}, pruned: true, rows: 1},
		{q: "SELECT * FROM items WHERE grp >= 0 AND id = ? AND v > 0", params: []types.Value{types.NewInt(42)}, pruned: true, rows: 1},
		{q: "SELECT v FROM items WHERE 5 = id", pruned: true, rows: 1},
		{q: "SELECT i.v FROM items i WHERE i.id = 5", pruned: true, rows: 1},
		{q: "SELECT items.v FROM items WHERE items.id = 5", pruned: true, rows: 1},
		{q: "SELECT grp FROM items WHERE id = 17.0", pruned: true, rows: 1},
		{q: "SELECT grp FROM items WHERE id = ?", params: []types.Value{types.NewFloat(17)}, pruned: true, rows: 1},
		{q: "SELECT grp FROM items WHERE id = ?", params: []types.Value{types.NewInt(100000)}, pruned: true, rows: 0},
		{q: "SELECT COUNT(*), SUM(v), MIN(grp), MAX(v) FROM items WHERE id = 9", pruned: true, rows: 1},
		{q: "SELECT COUNT(*), MAX(v) FROM items WHERE id = 100000", pruned: true, rows: 1},
		{q: "SELECT AVG(v) FROM items WHERE id = 9", pruned: true, rows: 1},
		{q: "SELECT grp, COUNT(*) FROM items WHERE id = 9 GROUP BY grp HAVING COUNT(*) > 0", pruned: true, rows: 1},
		{q: "SELECT DISTINCT grp FROM items WHERE id = 9 ORDER BY grp LIMIT 1", pruned: true, rows: 1},
		// Lossy, failed or empty coercions fall back to the fan-out.
		{q: "SELECT grp FROM items WHERE id = 5.5", rows: 0},
		{q: "SELECT grp FROM items WHERE id = ?", params: []types.Value{types.NewFloat(5.5)}, rows: 0},
		{q: "SELECT grp FROM items WHERE id = '5'", rows: 0},
		{q: "SELECT grp FROM items WHERE id = ?", params: []types.Value{types.NewFloat(1e300)}, rows: 0},
		{q: "SELECT grp FROM items WHERE id = NULL", rows: 0},
		{q: "SELECT grp FROM items WHERE id = ?", params: []types.Value{types.Null}, rows: 0},
		// Predicates that do not pin one key fan out.
		{q: "SELECT grp FROM items WHERE id = 3 OR id = 4", rows: 2},
		{q: "SELECT grp FROM items WHERE id IN (3, 4)", rows: 2},
		{q: "SELECT grp FROM items WHERE id >= 3 AND id <= 4", rows: 2},
		{q: "SELECT grp FROM items WHERE id BETWEEN 3 AND 4", rows: 2},
		{q: "SELECT grp FROM items WHERE grp = 1", rows: 30},
		{q: "SELECT grp FROM items WHERE id + 0 = 3", rows: 1},
		{q: "SELECT grp FROM items WHERE NOT (id = 3)", rows: 119},
		// PARTIAL tables and joins stay fan-out.
		{q: "SELECT n FROM partials WHERE k = 2", rows: parts},
		{q: "SELECT i.v, r.name FROM items i JOIN ref r ON r.id = i.grp WHERE i.id = 7", rows: 1},
		// What the fan-out rejects stays rejected.
		{q: "SELECT v FROM items WHERE id = 3 LIMIT 1 OFFSET 0", wantErr: true},
		{q: "SELECT AVG(DISTINCT v) FROM items WHERE id = 3", wantErr: true},
		{q: "SELECT * , COUNT(*) FROM items WHERE id = 3", wantErr: true},
	}
	for _, c := range cases {
		before := st.met.SnapshotReads.Load()
		got, err := st.Query(c.q, c.params...)
		legs := st.met.SnapshotReads.Load() - before
		want, wantErr := forcedFanout(st, c.q, c.params...)
		if c.wantErr {
			if err == nil || wantErr == nil {
				t.Errorf("%s: pruned err %v, fan-out err %v; want both to fail", c.q, err, wantErr)
			}
			continue
		}
		if err != nil || wantErr != nil {
			t.Errorf("%s %v: pruned err %v, fan-out err %v", c.q, c.params, err, wantErr)
			continue
		}
		wantLegs := int64(parts)
		if c.pruned {
			wantLegs = 1
		}
		if legs != wantLegs {
			t.Errorf("%s %v: ran %d legs, want %d", c.q, c.params, legs, wantLegs)
		}
		if g, w := canonRows(got, c.q), canonRows(want, c.q); g != w || strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
			t.Errorf("%s %v: pruned %v %s, fan-out %v %s", c.q, c.params, got.Columns, g, want.Columns, w)
		}
		if c.rows >= 0 && len(got.Rows) != c.rows {
			t.Errorf("%s %v: %d rows, want %d", c.q, c.params, len(got.Rows), c.rows)
		}
	}

	// Exec reaches the same read path.
	res, err := st.Exec("SELECT grp FROM items WHERE id = 17")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("Exec point SELECT: %v %v", res, err)
	}
}

// TestPointQueriesDuringRebalance reads rows by key while writers add
// rows and a live Rebalance migrates slots: every acknowledged row is
// found by its point read exactly once — never missed on a partition that
// lost the slot, never seen on both sides of a cutover.
func TestPointQueriesDuringRebalance(t *testing.T) {
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript(pruneDDL); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	const writers, readers, preload = 2, 3, 400
	insert := func(id int64) error {
		_, err := st.Exec("INSERT INTO items VALUES (?, ?, ?)", types.NewInt(id), types.NewInt(id%4), types.NewFloat(float64(id)))
		return err
	}
	for id := int64(1); id <= preload; id++ {
		if err := insert(id); err != nil {
			t.Fatal(err)
		}
	}
	// Writer w inserts ids preload+1+w, +writers, ...; written[w] counts
	// its acknowledged inserts, so its first written[w] ids are committed.
	writerID := func(w int, i int64) int64 { return preload + 1 + int64(w) + writers*i }
	var written [writers]atomic.Int64

	stop := make(chan struct{})
	errCh := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := insert(writerID(w, i)); err != nil {
					errCh <- err
					return
				}
				written[w].Add(1)
			}
		}(w)
	}
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := rng.Int63n(preload) + 1
				if w := rng.Intn(writers + 1); w < writers {
					if n := written[w].Load(); n > 0 {
						id = writerID(w, rng.Int63n(n))
					}
				}
				res, err := st.Query("SELECT id, v FROM items WHERE id = ?", types.NewInt(id))
				if err != nil {
					errCh <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Int() != id {
					errCh <- fmt.Errorf("point read of acked id %d returned %v", id, res.Rows)
					return
				}
				reads.Add(1)
			}
		}(int64(r + 1))
	}

	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if reads.Load() == 0 {
		t.Fatal("no point reads ran during the rebalance")
	}
	// After the migration every row is still found exactly once by key.
	ids := []int64{}
	for id := int64(1); id <= preload; id++ {
		ids = append(ids, id)
	}
	for w := range written {
		for i := int64(0); i < written[w].Load(); i++ {
			ids = append(ids, writerID(w, i))
		}
	}
	for _, id := range ids {
		res, err := st.Query("SELECT id FROM items WHERE id = ?", types.NewInt(id))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("after rebalance, id %d: %v %v", id, res, err)
		}
	}
	t.Logf("%d point reads during the rebalance, %d rows acked", reads.Load(), len(ids))
}
