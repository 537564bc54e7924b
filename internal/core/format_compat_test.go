package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
)

// The on-disk formats (command log, snapshot, slot table) must not depend
// on the in-memory layout of types.Value. testdata/format_v1 is a
// two-partition store written by the code as it stood before FLOAT values
// moved into Value's integer word: a checkpoint covering the first half
// of the workload, and the second half only in the command logs. It was
// produced by running this file's TestFormatFixtureRecovers with
//
//	go test ./internal/core/ -run TestFormatFixtureRecovers -write-format-fixture DIR
//
// on that code. Regenerating it with newer code defeats its purpose; do
// so only for a deliberate format change.
var writeFormatFixture = flag.String("write-format-fixture", "", "write the format fixture store into this directory instead of checking it")

const formatDDL = `
	CREATE TABLE readings (id INT PRIMARY KEY, v FLOAT, tag VARCHAR, at TIMESTAMP, ok BOOLEAN) PARTITION BY id;
	CREATE STREAM obs (id INT, dv FLOAT) PARTITION BY id;
`

// formatFloats are the FLOAT payloads whose bits the formats must carry
// exactly: signed zeros, two NaN payloads, infinities, subnormals.
var formatFloats = []float64{
	math.Copysign(0, -1), 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -1e300, 0.1, math.Float64frombits(0x7ff8000000000001),
	-math.SmallestNonzeroFloat64 * 3,
}

const formatRows, formatObsDelta = 32, 0.25

// formatReading is the row put_reading inserts for id i.
func formatReading(i int) types.Row {
	return types.Row{
		types.NewInt(int64(i)),
		types.NewFloat(formatFloats[i%len(formatFloats)]),
		types.NewString(fmt.Sprintf("r%02d-é", i)),
		types.NewTimestamp(1_700_000_000_000_000 + int64(i)*1000),
		types.NewBool(i%2 == 0),
	}
}

// formatObserved reports whether id i receives an obs tuple (only rows
// with a finite value, so the sums are exact and platform-independent).
func formatObserved(i int) bool {
	f := formatFloats[i%len(formatFloats)]
	return i%3 == 0 && !math.IsNaN(f) && !math.IsInf(f, 0) && f != -1e300
}

func buildFormatApp(t *testing.T, dir string) *Store {
	t.Helper()
	st := Open(Config{Dir: dir, Partitions: 2})
	if err := st.ExecScript(formatDDL); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pe.Procedure{
		{
			Name: "put_reading", WriteSet: []string{"readings"}, PartitionParam: 1,
			Handler: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Exec("INSERT INTO readings VALUES (?, ?, ?, ?, ?)", ctx.Params...)
				return err
			},
		},
		{
			Name: "apply_obs", ReadSet: []string{"readings"}, WriteSet: []string{"readings"},
			Handler: func(ctx *pe.ProcCtx) error {
				for _, r := range ctx.Batch {
					if _, err := ctx.Exec("UPDATE readings SET v = v + ? WHERE id = ?", r[1], r[0]); err != nil {
						return err
					}
				}
				return nil
			},
		},
	} {
		if err := st.RegisterProcedure(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.BindStream("obs", "apply_obs", 1); err != nil {
		t.Fatal(err)
	}
	return st
}

// runFormatHalf puts rows [lo, hi) through put_reading and feeds their obs
// tuples through the stream.
func runFormatHalf(t *testing.T, st *Store, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if _, err := st.Call("put_reading", formatReading(i)...); err != nil {
			t.Fatal(err)
		}
	}
	for i := lo; i < hi; i++ {
		if formatObserved(i) {
			if err := st.Ingest("obs", types.Row{types.NewInt(int64(i)), types.NewFloat(formatObsDelta)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.FlushBatches()
	st.Drain()
}

func TestFormatFixtureRecovers(t *testing.T) {
	if dir := *writeFormatFixture; dir != "" {
		st := buildFormatApp(t, dir)
		if err := st.Start(); err != nil {
			t.Fatal(err)
		}
		runFormatHalf(t, st, 0, formatRows/2)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runFormatHalf(t, st, formatRows/2, formatRows)
		if err := st.Stop(); err != nil { // crash: the second half is log-only
			t.Fatal(err)
		}
		return
	}

	src := filepath.Join("testdata", "format_v1")
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := buildFormatApp(t, dir)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	res, err := st.Query("SELECT id, v, tag, at, ok FROM readings ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != formatRows {
		t.Fatalf("recovered %d rows, want %d", len(res.Rows), formatRows)
	}
	for i, got := range res.Rows {
		want := formatReading(i)
		if formatObserved(i) {
			want[1] = types.NewFloat(want[1].Float() + formatObsDelta)
		}
		if got[0].Int() != want[0].Int() || got[2].Str() != want[2].Str() ||
			got[3].Timestamp() != want[3].Timestamp() || got[4].Bool() != want[4].Bool() {
			t.Errorf("row %d = %v, want %v", i, got, want)
		}
		if g, w := math.Float64bits(got[1].Float()), math.Float64bits(want[1].Float()); g != w {
			t.Errorf("row %d: v bits %#x, want %#x", i, g, w)
		}
	}
	// The recovered primary-key index serves point reads, and the store
	// keeps taking writes.
	row, err := st.Query("SELECT tag FROM readings WHERE id = ?", types.NewInt(formatRows-1))
	if err != nil || len(row.Rows) != 1 || row.Rows[0][0].Str() != formatReading(formatRows - 1)[2].Str() {
		t.Fatalf("point read: %v, %v", row, err)
	}
	if _, err := st.Call("put_reading", formatReading(formatRows)...); err != nil {
		t.Fatal(err)
	}
}
