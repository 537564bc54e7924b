package core

import (
	"testing"

	"repro/internal/types"
)

// Fan-out read-path benchmarks: pin every partition, run the leg on the
// fan-out workers, merge. The allocs/op these report before and after the
// scratch-pool change are recorded under E14 in EXPERIMENTS.md.

func BenchmarkFanoutScanQuery(b *testing.B) {
	st := buildPartApp(b, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(b, st, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query("SELECT k, n FROM totals WHERE n >= 0")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 64 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkFanoutAggQuery(b *testing.B) {
	st := buildPartApp(b, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(b, st, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query("SELECT k, SUM(n) FROM totals GROUP BY k")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 64 {
			b.Fatalf("groups = %d", len(res.Rows))
		}
	}
}

// dashDDL is the dashboard's read model: votes hash-partitioned by phone
// (point reads by the partition key) and per-contestant counts declared
// PARTIAL (the leaderboard re-aggregates them across partitions).
const dashDDL = `
	CREATE TABLE votes (phone BIGINT PRIMARY KEY, contestant INT NOT NULL, ts BIGINT) PARTITION BY phone;
	CREATE TABLE vote_counts (contestant INT PRIMARY KEY, n BIGINT DEFAULT 0) PARTITION BY contestant PARTIAL;
`

// buildDashStore opens a started 2-partition store holding votes phones
// 1..votes and six contestants' counts.
func buildDashStore(b *testing.B, votes int) *Store {
	b.Helper()
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript(dashDDL); err != nil {
		b.Fatal(err)
	}
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= votes; i++ {
		if _, err := st.Exec("INSERT INTO votes VALUES (?, ?, ?)",
			types.NewInt(int64(i)), types.NewInt(int64(i%6+1)), types.NewInt(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	for c := 1; c <= 6; c++ {
		if _, err := st.Exec("INSERT INTO vote_counts VALUES (?, ?)",
			types.NewInt(int64(c)), types.NewInt(int64(votes/6))); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkPointQuery is the dashboard's point read: a SELECT pinning the
// partition key, which runs on the key's owning partition alone.
func BenchmarkPointQuery(b *testing.B) {
	const votes = 10000
	st := buildDashStore(b, votes)
	defer st.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query("SELECT contestant FROM votes WHERE phone = ?", types.NewInt(int64(i%votes+1)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkLeaderboardQuery is the dashboard's leaderboard: a grouped
// aggregate over a PARTIAL table, fanned out to every partition and
// re-aggregated.
func BenchmarkLeaderboardQuery(b *testing.B) {
	st := buildDashStore(b, 600)
	defer st.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query("SELECT contestant, SUM(n) AS total FROM vote_counts GROUP BY contestant ORDER BY total DESC, contestant ASC LIMIT 3")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}
