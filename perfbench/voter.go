package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps/voter"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/workload"
)

// voter-oltp: the paper's Voter as the single cast_vote procedure on a
// durable, group-committed, 2-partition store. It stresses the commit path
// (pe acker, wal group commit, checkpoint stalls) and storage inserts into
// a growing table; it uses no triggers, windows, fan-out or wire. Every
// Config field but Dir, Sync and Partitions stays at its default, so a
// change to a default shows up here.
var voterPlan = plan{
	nominal: 10000,
	ladder:  []float64{16000, 22000, 28000, 33000, 38000, 43000, 49000, 56000},
	// Collecting the heap of a growing table stalls the generator for up
	// to ~200ms with 2 Ps; a lower limit fails rungs on those alone.
	limit: int64(300 * time.Millisecond),
}

const (
	voterPartitions  = 2
	voterContestants = 25
	voterCheckpoint  = 50000 // calls between Store.Checkpoint calls, in the nominal phase
	voterSetups      = 5
	// voterPreload votes are cast during set-up, so that set-up time is
	// mostly the engine's own work rather than the fsyncs that create the
	// log files.
	voterPreload = 20000
)

func runVoterOLTP(cfg runConfig) (*report, error) {
	rep := newReport()
	clk := cfg.clk
	phases, n := cfg.phases(voterPlan)
	nom := phases[1]
	// Until the nominal phase's peak RSS is read, the feed and the per-op
	// arrays cover the preload, warm-up and nominal phases only (n1 ops).
	// Op i casts feed[voterPreload+i].
	n1 := nom.hi
	vcfg := workload.DefaultVoterConfig(cfg.seed, voterPreload+n1)
	feed := workload.Votes(vcfg)
	rep.params = map[string]any{
		"partitions": voterPartitions, "sync": "group-commit", "contestants": voterContestants,
		"nominal_calls_per_s": voterPlan.nominal, "ladder_calls_per_s": voterPlan.ladder,
		"p99_limit_ms": voterPlan.limit / int64(time.Millisecond), "checkpoint_every_calls": voterCheckpoint,
		"votes": n, "preload_votes": voterPreload, "invalid_pct": vcfg.InvalidPct, "dup_pct": vcfg.DupPct, "setups": voterSetups,
		"burst_period_ms": float64(burstPeriod) / nsPerMS,
	}

	due := make([]int64, n1)
	late := make([]int64, n1)
	done := grow(nil, n1, -1)
	traced := func(int) bool { return false }
	var subA, subB, hA, hB []int64
	if cfg.trace {
		// A traced run has no ladder: n == n1.
		zeroLayers(rep.layers)
		subA, subB, hA, hB = make([]int64, n1), make([]int64, n1), make([]int64, n1), make([]int64, n1)
		traced = func(i int) bool {
			return i >= nom.lo && i < nom.hi && tracedBlock(due[i]-due[nom.lo])
		}
	}

	root, err := os.MkdirTemp(filepath.Join(cfg.work, "tmp"), "voter-oltp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	storeCfg := func(dir string) core.Config {
		return core.Config{Dir: dir, Sync: wal.SyncGroupCommit, Partitions: voterPartitions}
	}
	var st *core.Store
	var dir string
	setups, err := timedSetups(voterSetups, func(k int) (func() error, error) {
		dir = filepath.Join(root, fmt.Sprint(k))
		st = core.Open(storeCfg(dir))
		if err := voter.SetupOLTP(st, voterContestants); err != nil {
			return nil, err
		}
		if cfg.trace {
			// One Procedure value is registered on every partition.
			cast := st.PEAt(0).Procedure("cast_vote")
			h := cast.Handler
			cast.Handler = func(ctx *pe.ProcCtx) error {
				i := int(ctx.Params[2].Int()) - voterPreload
				if i < 0 || !traced(i) {
					return h(ctx)
				}
				a := clk.now()
				err := h(ctx)
				hA[i], hB[i] = a, clk.now()
				return err
			}
		}
		if err := st.Start(); err != nil {
			return nil, err
		}
		return st.Stop, preload(st, feed[:voterPreload])
	})
	if err != nil {
		return nil, err
	}
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}
	running := true
	defer func() {
		if running {
			st.Stop()
		}
	}()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	var failed int64
	var firstErr error
	// One pacer submits; one collector reaps. Its buffer holds any rung's
	// backlog.
	col := startCollector(1<<17, func(i int, r pe.CallResult) {
		done[i] = clk.now()
		if r.Err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.Err
			}
		}
	})
	defer col.stop()

	ckpt := make([]int64, 0, n/voterCheckpoint+1)
	ckptStart := make([]int64, 0, n/voterCheckpoint+1)
	var ckptErr error
	send := func(i int) {
		p := voteParams(feed, voterPreload+i)
		if traced(i) {
			a := clk.now()
			ch := st.CallAsync("cast_vote", p...)
			subA[i], subB[i] = a, clk.now()
			col.submit(i, ch)
		} else {
			col.submit(i, st.CallAsync("cast_vote", p...))
		}
		// Checkpoints run on the call schedule through the nominal phase;
		// the ladder measures the commit path alone, so a stall landing in a
		// short rung cannot decide max_rate.
		if i < nom.hi && (i+1)%voterCheckpoint == 0 {
			a := clk.now()
			if err := st.Checkpoint(); err != nil && ckptErr == nil {
				ckptErr = err
			}
			ckptStart = append(ckptStart, a)
			ckpt = append(ckpt, clk.now()-a)
		}
	}
	sent := 0
	runPhase := func(ph phase) {
		base := (clk.now()/burstPeriod + 2) * burstPeriod
		fill(due, ph, base)
		pacer{clk: clk, period: burstPeriod}.run(due[ph.lo:ph.hi], late[ph.lo:ph.hi], func(j int) { send(ph.lo + j) })
		col.sync()
		sent = ph.hi
	}

	runPhase(phases[0])
	var m0, m1 = st.Metrics().Snapshot(), st.Metrics().Snapshot()
	var p0, p1 procSample
	err = ladder(rep, voterPlan, rungsOf(phases), func(ph phase) ([]int64, []int64, int, int, error) {
		if ph.name == "nominal" {
			m0, p0 = st.Metrics().Snapshot(), readProc()
			runPhase(ph)
			p1, m1 = readProc(), st.Metrics().Snapshot()
			held := 24*len(feed) + 8*(len(due)+len(late)+len(done)+len(subA)+len(subB)+len(hA)+len(hB))
			if err := putRSS(rep, held); err != nil {
				return nil, nil, 0, 0, err
			}
			feed = workload.Votes(workload.DefaultVoterConfig(cfg.seed, voterPreload+n))
			due, late, done = grow(due, n, 0), grow(late, n, 0), grow(done, n, -1)
		} else {
			runPhase(ph)
		}
		return due, done, ph.lo, ph.hi, ckptErr
	})
	if err != nil {
		return nil, err
	}
	col.stop()
	if firstErr != nil {
		rep.check(false, "cast_vote failed: %v", firstErr)
	}
	rep.attempted, rep.failed = int64(sent), failed

	// Oracle: the committed count equals the reference over every vote sent,
	// before and after a restart from the same directory.
	want := voter.ExpectedValidVotes(feed[:voterPreload+sent], voterContestants)
	got, err := sumCounts(st)
	if err != nil {
		return nil, err
	}
	rep.check(got == want, "SUM(n) = %d, reference %d", got, want)
	running = false
	if err := st.Stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	st = nil // let the stopped store go before the reopen loads the same data
	t0 := time.Now()
	st2 := core.Open(storeCfg(dir))
	if err := voter.SetupOLTP(st2, voterContestants); err != nil {
		return nil, err
	}
	if err := st2.Start(); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	recovery := time.Since(t0).Seconds()
	got2, err := sumCounts(st2)
	if stopErr := st2.Stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	rep.check(got2 == want, "after recovery SUM(n) = %d, reference %d", got2, want)
	rep.detail["votes_counted"] = metric{float64(want), "count"}
	rep.detail["checkpoints"] = metric{float64(len(ckpt)), "count"}

	putLatency(rep, "call", due, done, nom.lo, nom.hi)
	putCPU(rep, p0, p1, nom.hi-nom.lo)
	if !cfg.trace {
		return rep, nil
	}

	// Per-layer metrics from the traced blocks' spans.
	L := rep.layers
	L["wal.recovery_s"] = metric{recovery, "s"}
	q := newQuantiles(ckpt)
	L["wal.checkpoint_ms_p50"] = metric{float64(q.at(0.5)) / nsPerMS, "ms"}
	L["wal.checkpoint_ms_max"] = metric{float64(q.max()) / nsPerMS, "ms"}
	lateQ := newQuantiles(late[nom.lo:nom.hi])
	L["gen.late_p50_ms"] = metric{float64(lateQ.at(0.5)) / nsPerMS, "ms"}
	L["gen.late_p99_ms"] = metric{float64(lateQ.at(0.99)) / nsPerMS, "ms"}
	engineLayer(L, m1.Delta(m0), nom.hi-nom.lo, 0, nom.seconds)
	runtimeLayer(L, p0, p1, nom.hi-nom.lo)

	spans := &spanLog{spans: make([]span, 0, 6*(nom.hi-nom.lo)/2+len(ckpt))}
	var execSum int64
	nTraced := 0
	for i := nom.lo; i < nom.hi; i++ {
		if !traced(i) || done[i] < 0 || hB[i] == 0 {
			continue
		}
		nTraced++
		r := spans.add("request", due[i], done[i], -1, int64(i))
		spans.add("gen.late", due[i], due[i]+late[i], r, int64(i))
		spans.add("core.submit", subA[i], subB[i], r, int64(i))
		// The worker may start the handler before CallAsync returns.
		spans.add("pe.queue", subB[i], max(hA[i], subB[i]), r, int64(i))
		spans.add("pe.exec", hA[i], hB[i], r, int64(i))
		spans.add("pe.commit", hB[i], done[i], r, int64(i))
		execSum += hB[i] - hA[i]
	}
	for k, d := range ckpt {
		spans.add("wal.checkpoint", ckptStart[k], ckptStart[k]+d, -1, -1)
	}
	self := spans.selfTimes()
	spanLayer(L, self, "core.submit", "core.submit_us", false)
	spanLayer(L, self, "pe.queue", "pe.queue_us", true)
	spanLayer(L, self, "pe.exec", "pe.exec_us", true)
	spanLayer(L, self, "pe.commit", "pe.commit_us", true)
	tracedSeconds := float64(nTraced) / voterPlan.nominal
	L["pe.busy_frac"] = metric{ratio(float64(execSum)/1e9, tracedSeconds*voterPartitions), "frac"}
	L["trace.overhead_frac"] = metric{overheadFrac(
		latencies(due, done, nom.lo, nom.hi, traced),
		latencies(due, done, nom.lo, nom.hi, func(i int) bool { return !traced(i) }),
	), "frac"}
	rep.detail["traced_requests"] = metric{float64(nTraced), "count"}
	rep.spans = spans
	return rep, nil
}

// voteParams is cast_vote's arguments for feed[i]. The third (the vote's
// timestamp column) carries i, which lets the traced handler wrapper find
// its request. The generator builds them per call, as a client would, so
// that the peak RSS does not hold them for the whole run.
func voteParams(feed []workload.Vote, i int) []types.Value {
	return []types.Value{types.NewInt(feed[i].Phone), types.NewInt(feed[i].Contestant), types.NewInt(int64(i))}
}

func sumCounts(st *core.Store) (int64, error) {
	res, err := st.Query("SELECT SUM(n) FROM vote_counts")
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || res.Rows[0][0].IsNull() {
		return 0, nil
	}
	return res.Rows[0][0].Int(), nil
}
