package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/apps/voter"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workload"
)

// dashboard-tcp: an in-process server on 127.0.0.1:0 over a volatile
// 2-partition Voter store preloaded with cast_vote votes and run under a
// memory budget below the preloaded size. Connection 1 issues SELECTs at
// the primary rate: the router-merged leaderboard and skewed point reads by
// phone, a minority of which fault through the cold store. Connection 2
// issues cast_vote writes beside them. It stresses client/wire/server, the
// statement cache, fan-out merge, lock-free snapshot reads and cold-store
// read-through. Rates are SELECTs per second.
//
// The mix follows two rules from the repository's own sources. The paper's
// Voter updates its leaderboards with every vote (internal/apps/voter), so
// the dashboard reads the leaderboard once per vote written. E13's skewed
// mix (EXPERIMENTS.md) makes every third op a write and sends 90% of point
// ops to the hottest 10% of keys, so there are two point reads per vote
// written, 90% of them over a tenth of the preloaded phones. Per vote: one
// leaderboard read and two point reads, a third and two thirds of the
// SELECTs.
var dashPlan = plan{
	nominal: 3000,
	ladder:  []float64{4000, 5000, 6000, 6750, 7500, 8250, 9000, 10000, 11000},
	limit:   int64(100 * time.Millisecond),
	classes: []string{"board", "point", "write"},
}

const (
	dashPartitions     = 2
	dashContestants    = 25
	dashPreload        = 100000   // cast_vote calls before the first request
	dashBudget         = 10 << 20 // about three quarters of the preloaded resident size
	dashBoardsPerWrite = 1
	dashPointsPerWrite = 2
	dashHotPct         = 90 // share of point reads that go to the hot phones
	dashHotShare       = 10 // hot phones, as a percentage of the preloaded phones
	dashSetups         = 3
)

const leaderboardSQL = "SELECT contestant, SUM(n) AS total FROM vote_counts GROUP BY contestant ORDER BY total DESC, contestant ASC LIMIT 3"
const pointSQL = "SELECT contestant FROM votes WHERE phone = ?"

// dashRead is one generated SELECT: the leaderboard when phone is 0.
type dashRead struct {
	phone int64
	want  int64 // contestant the feed predicts for a point read
}

func (r dashRead) class() string {
	if r.phone == 0 {
		return "board"
	}
	return "point"
}

func runDashboardTCP(cfg runConfig) (*report, error) {
	rep := newReport()
	clk := cfg.clk
	// A one-class phase runs its class at the nominal phase's total op
	// rate: reads of the other class are skipped, so the read slots run
	// faster by the inverse of the class's share of the reads.
	const perWrite = dashBoardsPerWrite + dashPointsPerWrite
	total := dashPlan.nominal * (perWrite + 1) / perWrite
	specs, _ := cfg.phases(dashPlan)
	phases, nReads := relayout(specs, func(ph phase) float64 {
		switch ph.only {
		case "board":
			return total * perWrite / dashBoardsPerWrite
		case "point":
			return total * perWrite / dashPointsPerWrite
		case "write":
			return 0
		}
		return ph.rate
	})
	nom := phases[1]
	wphases, nWrites := relayout(phases, func(ph phase) float64 {
		switch ph.only {
		case "":
			return ph.rate / perWrite
		case "write":
			return total
		}
		return 0
	})
	wnom := wphases[1]
	phaseIndex := map[string]int{}
	for k, ph := range phases {
		phaseIndex[ph.name] = k
	}

	// Until the nominal phase's peak RSS is read, the write feed and the
	// per-op arrays cover the warm-up and nominal phases only (n1 reads,
	// wn1 writes). Write j casts feed[dashPreload+j].
	n1, wn1 := nom.hi, wnom.hi
	vcfg := workload.DefaultVoterConfig(cfg.seed, dashPreload+wn1)
	feed := workload.Votes(vcfg)
	pre := voter.RunOracle(feed[:dashPreload], dashContestants, dashPreload+1)
	phones := make([]int64, 0, len(pre.VoteOf))
	for ph := range pre.VoteOf {
		phones = append(phones, ph)
	}
	sort.Slice(phones, func(i, j int) bool { return phones[i] < phones[j] })
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x64617368))
	rng.Shuffle(len(phones), func(i, j int) { phones[i], phones[j] = phones[j], phones[i] })
	hot := len(phones) * dashHotShare / 100
	reads := make([]dashRead, nReads)
	for i := range reads {
		if rng.Intn(dashBoardsPerWrite+dashPointsPerWrite) < dashBoardsPerWrite {
			continue
		}
		var ph int64
		if rng.Intn(100) < dashHotPct {
			ph = phones[rng.Intn(hot)]
		} else {
			ph = phones[rng.Intn(len(phones))]
		}
		reads[i] = dashRead{phone: ph, want: pre.VoteOf[ph]}
	}
	pre, phones = nil, nil
	rep.params = map[string]any{
		"partitions": dashPartitions, "durability": "none", "memory_budget_bytes": dashBudget,
		"preload_votes": dashPreload, "contestants": dashContestants,
		"nominal_selects_per_s": dashPlan.nominal, "ladder_selects_per_s": dashPlan.ladder,
		"leaderboards_per_write": dashBoardsPerWrite, "point_reads_per_write": dashPointsPerWrite,
		"hot_phones": hot, "hot_pct": dashHotPct, "p99_limit_ms": dashPlan.limit / int64(time.Millisecond),
		"class_seconds": classSeconds,
		"setups":        dashSetups, "tcp_connections": 2, "burst_period_ms": float64(burstPeriod) / nsPerMS,
	}

	rdue, rlate, rdone := make([]int64, n1), make([]int64, n1), grow(nil, n1, -1)
	wdue, wlate, wdone := make([]int64, wn1), make([]int64, wn1), grow(nil, wn1, -1)
	rtraced := func(int) bool { return false }
	wtraced := func(int) bool { return false }
	var rsend, wsend, hA, hB []int64
	// Frame sizes of traced requests, per connection: [0] reads, [1] writes.
	var reqBytes, respBytes, framed [2]int64
	if cfg.trace {
		zeroLayers(rep.layers)
		// A traced run has no ladder: nReads == n1, nWrites == wn1.
		rsend, wsend, hA, hB = make([]int64, n1), make([]int64, wn1), make([]int64, wn1), make([]int64, wn1)
		rtraced = func(i int) bool { return i >= nom.lo && i < nom.hi && tracedBlock(rdue[i]-rdue[nom.lo]) }
		wtraced = func(j int) bool { return j >= wnom.lo && j < wnom.hi && tracedBlock(wdue[j]-rdue[nom.lo]) }
	}

	var st *core.Store
	var srv *server.Server
	setups, err := timedSetups(dashSetups, func(int) (func() error, error) {
		st = core.Open(core.Config{Partitions: dashPartitions, MemoryBudget: dashBudget})
		if err := voter.SetupOLTP(st, dashContestants); err != nil {
			return nil, err
		}
		if cfg.trace {
			cast := st.PEAt(0).Procedure("cast_vote")
			h := cast.Handler
			cast.Handler = func(ctx *pe.ProcCtx) error {
				j := int(ctx.Params[2].Int()) - dashPreload
				if j < 0 || !wtraced(j) {
					return h(ctx)
				}
				a := clk.now()
				err := h(ctx)
				hA[j], hB[j] = a, clk.now()
				return err
			}
		}
		if err := st.Start(); err != nil {
			return nil, err
		}
		if err := preload(st, feed[:dashPreload]); err != nil {
			st.Stop()
			return nil, err
		}
		srv = server.New(st)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			st.Stop()
			return nil, err
		}
		return func() error { srv.Close(); return st.Stop() }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}
	defer st.Stop()
	defer srv.Close()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	readConn, err := client.DialTCP(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer readConn.Close()
	writeConn, err := client.DialTCP(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer writeConn.Close()

	var rfailed, wfailed, wrong int64
	var firstErr error
	var errMu sync.Mutex
	noteErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	var readsSent int
	// readSend sends read i unless the phase runs another class alone.
	readSend := func(i int, only string) {
		rd := reads[i]
		if only != "" && rd.class() != only {
			return
		}
		readsSent++
		sql := leaderboardSQL
		var args []types.Value
		if rd.phone != 0 {
			sql, args = pointSQL, []types.Value{types.NewInt(rd.phone)}
		}
		a := clk.now()
		resp, err := readConn.Query(sql, args...)
		rdone[i] = clk.now()
		if err != nil {
			rfailed++
			noteErr(err)
			return
		}
		if rd.phone != 0 && (len(resp.Rows) != 1 || resp.Rows[0][0].Int() != rd.want) {
			wrong++
		}
		if rtraced(i) {
			rsend[i] = a
			reqBytes[0] += int64(4 + len(wire.EncodeRequest(&wire.Request{Kind: wire.MsgQuery, Target: sql, Params: args})))
			respBytes[0] += int64(4 + len(wire.EncodeResponse(resp)))
			framed[0]++
		}
	}
	writeSend := func(j int) {
		p := voteParams(feed, dashPreload+j)
		a := clk.now()
		resp, err := writeConn.Call("cast_vote", p...)
		wdone[j] = clk.now()
		if err != nil {
			wfailed++
			noteErr(err)
			return
		}
		if wtraced(j) {
			wsend[j] = a
			reqBytes[1] += int64(4 + len(wire.EncodeRequest(&wire.Request{Kind: wire.MsgCall, Target: "cast_vote", Params: p})))
			respBytes[1] += int64(4 + len(wire.EncodeResponse(resp)))
			framed[1]++
		}
	}
	sentWrites := 0
	// runPhase drives both connections through phase k from one start time,
	// each from its own goroutine, and returns when both have finished.
	runPhase := func(k int) {
		rp, wp := phases[k], wphases[k]
		base := (clk.now()/burstPeriod + 2) * burstPeriod
		fill(rdue, rp, base)
		fill(wdue, wp, base)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			pacer{clk: clk, period: burstPeriod}.run(rdue[rp.lo:rp.hi], rlate[rp.lo:rp.hi], func(j int) { readSend(rp.lo+j, rp.only) })
		}()
		go func() {
			defer wg.Done()
			pacer{clk: clk, period: burstPeriod}.run(wdue[wp.lo:wp.hi], wlate[wp.lo:wp.hi], func(j int) { writeSend(wp.lo + j) })
		}()
		wg.Wait()
		sentWrites = wp.hi
	}

	runPhase(0)
	m0, m1 := st.Metrics().Snapshot(), st.Metrics().Snapshot()
	var p0, p1 procSample
	var classes []class
	err = ladder(rep, dashPlan, rungsOf(phases), func(ph phase) ([]int64, []int64, int, int, error) {
		if ph.name != "nominal" {
			runPhase(phaseIndex[ph.name])
			return rdue, rdone, ph.lo, ph.hi, nil
		}
		m0, p0 = st.Metrics().Snapshot(), readProc()
		runPhase(1)
		p1, m1 = readProc(), st.Metrics().Snapshot()
		held := 24*len(feed) + 16*len(reads) +
			8*(len(rdue)+len(rlate)+len(rdone)+len(wdue)+len(wlate)+len(wdone)+len(rsend)+len(wsend)+len(hA)+len(hB))
		if err := putRSS(rep, held); err != nil {
			return nil, nil, 0, 0, err
		}
		feed = workload.Votes(workload.DefaultVoterConfig(cfg.seed, dashPreload+nWrites))
		rdue, rlate, rdone = grow(rdue, nReads, 0), grow(rlate, nReads, 0), grow(rdone, nReads, -1)
		wdue, wlate, wdone = grow(wdue, nWrites, 0), grow(wlate, nWrites, 0), grow(wdone, nWrites, -1)
		if cfg.trace {
			return rdue, rdone, ph.lo, ph.hi, nil
		}
		// Each class's share of the nominal phase's ops and CPU.
		ops := map[string]int{"write": wnom.hi - wnom.lo}
		for _, rd := range reads[nom.lo:nom.hi] {
			ops[rd.class()]++
		}
		for _, name := range dashPlan.classes {
			reads0, writes0 := readsSent, sentWrites
			cpu0, _ := processCPU()
			runPhase(phaseIndex["only-"+name])
			cpu1, _ := processCPU()
			ran := float64(readsSent - reads0 + sentWrites - writes0)
			classes = append(classes, class{name: name, ops: ops[name], cost: ratio(float64(cpu1-cpu0), ran)})
		}
		classShares(rep, p1.procCPU-p0.procCPU, classes)
		return rdue, rdone, ph.lo, ph.hi, nil
	})
	if err != nil {
		return nil, err
	}
	rep.attempted = int64(readsSent + sentWrites)
	rep.failed = rfailed + wfailed + wrong
	if firstErr != nil {
		rep.check(false, "request failed: %v", firstErr)
	}
	rep.check(wrong == 0, "%d point reads returned a contestant the feed does not predict", wrong)

	// Oracle: the per-contestant totals and the leaderboard equal the
	// reference over the preload and every write sent.
	ref := voter.RunOracle(feed[:dashPreload+sentWrites], dashContestants, dashPreload+sentWrites+1)
	totals, err := readConn.Query("SELECT contestant, SUM(n) FROM vote_counts GROUP BY contestant ORDER BY contestant")
	if err != nil {
		return nil, err
	}
	mismatch := 0
	for _, r := range totals.Rows {
		if ref.Counts[r[0].Int()] != r[1].Int() {
			mismatch++
		}
	}
	rep.check(mismatch == 0 && len(totals.Rows) == dashContestants, "%d of %d contestant totals differ from the reference", mismatch, len(totals.Rows))
	board, err := readConn.Query(leaderboardSQL)
	if err != nil {
		return nil, err
	}
	want := make([]int64, 0, dashContestants)
	for c := 1; c <= dashContestants; c++ {
		want = append(want, int64(c))
	}
	sort.SliceStable(want, func(i, j int) bool { return ref.Counts[want[i]] > ref.Counts[want[j]] })
	same := len(board.Rows) == 3
	for i := 0; same && i < 3; i++ {
		same = board.Rows[i][0].Int() == want[i] && board.Rows[i][1].Int() == ref.Counts[want[i]]
	}
	rep.check(same, "final leaderboard differs from the reference")
	rep.detail["wrong_reads"] = metric{float64(wrong), "count"}

	putLatency(rep, "query", rdue, rdone, nom.lo, nom.hi)
	putLatency(rep, "call", wdue, wdone, wnom.lo, wnom.hi)
	nq, nc := nom.hi-nom.lo, wnom.hi-wnom.lo
	putCPU(rep, p0, p1, nq+nc)
	if !cfg.trace {
		return rep, nil
	}

	L := rep.layers
	lateAll := append(append([]int64(nil), rlate[nom.lo:nom.hi]...), wlate[wnom.lo:wnom.hi]...)
	lateQ := newQuantiles(lateAll)
	L["gen.late_p50_ms"] = metric{float64(lateQ.at(0.5)) / nsPerMS, "ms"}
	L["gen.late_p99_ms"] = metric{float64(lateQ.at(0.99)) / nsPerMS, "ms"}
	engineLayer(L, m1.Delta(m0), nc, nq, nom.seconds)
	runtimeLayer(L, p0, p1, nq+nc)
	frames := float64(framed[0] + framed[1])
	L["wire.req_bytes"] = metric{ratio(float64(reqBytes[0]+reqBytes[1]), frames), "B"}
	L["wire.resp_bytes"] = metric{ratio(float64(respBytes[0]+respBytes[1]), frames), "B"}

	spans := &spanLog{spans: make([]span, 0, 3*nq+4*nc)}
	var execSum int64
	for i := nom.lo; i < nom.hi; i++ {
		if !rtraced(i) || rdone[i] < 0 || rsend[i] == 0 {
			continue
		}
		r := spans.add("query", rdue[i], rdone[i], -1, int64(i))
		spans.add("gen.late", rdue[i], rdue[i]+rlate[i], r, int64(i))
		spans.add("client.rtt.query", rsend[i], rdone[i], r, int64(i))
	}
	tracedCalls := 0
	for j := wnom.lo; j < wnom.hi; j++ {
		if !wtraced(j) || wdone[j] < 0 || wsend[j] == 0 || hB[j] == 0 {
			continue
		}
		tracedCalls++
		id := int64(dashPreload + j)
		r := spans.add("call", wdue[j], wdone[j], -1, id)
		spans.add("gen.late", wdue[j], wdue[j]+wlate[j], r, id)
		rtt := spans.add("client.rtt.call", wsend[j], wdone[j], r, id)
		spans.add("pe.exec", hA[j], hB[j], rtt, id)
		execSum += hB[j] - hA[j]
	}
	self := spans.selfTimes()
	rttQ := func(name string) quantiles {
		var d []int64
		for _, s := range spans.spans {
			if s.name == name {
				d = append(d, s.end-s.start)
			}
		}
		return newQuantiles(d)
	}
	for _, class := range []string{"query", "call"} {
		q := rttQ("client.rtt." + class)
		L["client.rtt_us_p50."+class] = metric{float64(q.at(0.5)) / nsPerUS, "us"}
		L["client.rtt_us_p99."+class] = metric{float64(q.at(0.99)) / nsPerUS, "us"}
	}
	spanLayer(L, self, "client.rtt.call", "server.overhead_us", false)
	spanLayer(L, self, "pe.exec", "pe.exec_us", true)
	tracedSeconds := float64(tracedCalls) / (dashPlan.nominal / (dashBoardsPerWrite + dashPointsPerWrite))
	L["pe.busy_frac"] = metric{ratio(float64(execSum)/1e9, tracedSeconds*dashPartitions), "frac"}
	L["trace.overhead_frac"] = metric{overheadFrac(
		latencies(rdue, rdone, nom.lo, nom.hi, rtraced),
		latencies(rdue, rdone, nom.lo, nom.hi, func(i int) bool { return !rtraced(i) }),
	), "frac"}
	rep.spans = spans
	return rep, nil
}

// preload casts the given votes through CallAsync, a bounded window at a
// time.
func preload(st *core.Store, feed []workload.Vote) error {
	const window = 1024
	chans := make([]<-chan pe.CallResult, 0, window)
	for i := range feed {
		chans = append(chans, st.CallAsync("cast_vote", voteParams(feed, i)...))
		if len(chans) == window || i == len(feed)-1 {
			for _, ch := range chans {
				if r := <-ch; r.Err != nil {
					return fmt.Errorf("preload: %w", r.Err)
				}
			}
			chans = chans[:0]
		}
	}
	return nil
}
