package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/apps/bikeshare"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/workload"
)

// bikeshare-mix: the paper's §3.2 BikeShare app on one volatile partition.
// GPS tuples go in one per Ingest through gps -> bs_gps (batch 16) ->
// alert_s -> bs_alert, with the RANGE window on gps; checkout, return and
// accept-discount calls run on the same serial worker beside them. It
// stresses border batching, PE triggers, window slides, MVCC churn from
// in-place updates and stream-vs-OLTP contention on one worker; it uses no
// WAL, routing or wire. Rates are GPS tuples per second.
//
// The paper gives no request mix for BikeShare, so two stated rules set
// it. One OLTP call follows each border batch's worth of tuples, so the
// worker alternates one stream transaction and one OLTP transaction and
// every batch can queue behind a call: the contention the workload exists
// to measure. The three procedures get equal shares of the calls.
var bikePlan = plan{
	nominal: 5000,
	ladder:  []float64{10000, 15000, 20000, 24000, 27000, 30000, 33000, 36000, 40000},
	limit:   int64(100 * time.Millisecond),
	perOp:   bikeBatch,
	classes: []string{"call", "gps"},
}

const (
	bikeStations   = 50
	bikePerStation = 10
	bikeBikes      = bikeStations * bikePerStation
	bikeRiders     = 1000
	bikeBatch      = 16        // bs_gps's batch size in bikeshare.Setup
	bikeCallEvery  = bikeBatch // one call per this many GPS tuples
	bikeProcs      = 3         // checkout, return, accept-discount: equal shares
	bikeSetups     = 9
	// bikePreload GPS tuples (8 ticks of the feed, whole border batches)
	// go through the dataflow during set-up, so that set-up time is mostly
	// the engine's own work rather than a few milliseconds of schema and
	// goroutine start-up that follow the host's scheduling.
	bikePreload = 8 * bikeBikes
	// bikeCallGapUS is the simulated time between calls: the feed's 500
	// bikes report at 1 Hz, so bikeCallEvery tuples span this many µs.
	bikeCallGapUS = bikeCallEvery * 1_000_000 / bikeBikes
)

// bikeCall is one generated OLTP request; its timestamp comes from its
// position in the sequence (callParams).
type bikeCall struct {
	proc           string
	rider, station int32
}

// bikeCalls generates the call sequence: a third of calls accept a
// discount, and of the rest a rider with no bike (as far as the
// generator's own bookkeeping knows) checks one out and a rider with one
// returns it. The engine decides which calls abort; a sequential replay
// must predict exactly those.
func bikeCalls(seed int64, n int) []bikeCall {
	rng := rand.New(rand.NewSource(seed ^ 0x6b696b65))
	riding := make([]bool, bikeRiders+1)
	out := make([]bikeCall, n)
	for c := range out {
		rider := 1 + rng.Intn(bikeRiders)
		station := 1 + rng.Intn(bikeStations)
		proc := "bs_accept_discount"
		switch {
		case rng.Intn(bikeProcs) == 0:
		case !riding[rider]:
			proc, riding[rider] = "bs_checkout", true
		default:
			proc, riding[rider] = "bs_return", false
		}
		out[c] = bikeCall{proc: proc, rider: int32(rider), station: int32(station)}
	}
	return out
}

// callParams is call c's arguments: rider, station, and a timestamp that
// advances by bikeCallGapUS per call from ts0, the first tuple after the
// preload.
func callParams(calls []bikeCall, c int, ts0 int64) []types.Value {
	return []types.Value{types.NewInt(int64(calls[c].rider)), types.NewInt(int64(calls[c].station)),
		types.NewInt(ts0 + int64(c+1)*bikeCallGapUS)}
}

// gpsFeed generates the GPS feed, tick by tick, bike by bike: the preload,
// then the tuple phases' n tuples.
func gpsFeed(seed int64, n int) (preload, feed []workload.GPSPoint) {
	ticks := (bikePreload + n + bikeBikes - 1) / bikeBikes
	all := workload.GPS(workload.DefaultBikeConfig(seed, bikeBikes, ticks))
	return all[:bikePreload], all[bikePreload : bikePreload+n]
}

func gpsRow(p workload.GPSPoint) types.Row {
	return types.Row{types.NewInt(p.Bike), types.NewInt(p.TS), types.NewFloat(p.Lat), types.NewFloat(p.Lon)}
}

func isAbort(err error) bool {
	return err != nil && strings.Contains(err.Error(), "aborted by procedure")
}

func openBikeshare() (*core.Store, error) {
	st := core.Open(core.Config{})
	return st, bikeshare.Setup(st, bikeStations, bikePerStation, bikeRiders)
}

func runBikeshareMix(cfg runConfig) (*report, error) {
	rep := newReport()
	clk := cfg.clk
	// Tuple phases. A one-class phase runs its class at the nominal
	// phase's total op rate; the calls-only phase has no tuples.
	total := bikePlan.nominal * (1 + 1.0/bikeCallEvery)
	specs, _ := cfg.phases(bikePlan)
	phases, n := relayout(specs, func(ph phase) float64 {
		switch ph.only {
		case "call":
			return 0
		case "gps":
			return total
		}
		return ph.rate
	})
	nom := phases[1]
	phaseIndex := map[string]int{}
	callsOnly := 0
	for k, ph := range phases {
		phaseIndex[ph.name] = k
		if ph.only == "call" {
			callsOnly = int(math.Round(total * ph.seconds))
		}
	}
	pre, gps := gpsFeed(cfg.seed, n)
	ts0 := gps[0].TS
	// tupleIndex recovers a GPS tuple's position in the feed after the
	// preload (negative for a preload tuple); the generator emits the feed
	// tick by tick, bike by bike.
	tupleIndex := func(r types.Row) int { return int((r[1].Int()-ts0)/1_000_000)*bikeBikes + int(r[0].Int()-1) }
	for i := range gps {
		if k := tupleIndex(gpsRow(gps[i])); k != i {
			return nil, fmt.Errorf("GPS feed order changed: tuple %d maps to %d", i, k)
		}
	}
	// Until the nominal phase's peak RSS is read, the feed and the per-tuple
	// arrays cover the warm-up and nominal phases only (n1 tuples).
	n1 := nom.hi
	gps = append([]workload.GPSPoint(nil), gps[:n1]...)
	nCalls := n/bikeCallEvery + callsOnly
	calls := bikeCalls(cfg.seed, nCalls)
	nBatches := n / bikeBatch
	rep.params = map[string]any{
		"partitions": 1, "durability": "none", "stations": bikeStations, "bikes": bikeBikes,
		"riders": bikeRiders, "gps_batch": bikeBatch, "gps_tuples_per_ingest": 1, "preload_tuples": bikePreload,
		"call_every_tuples": bikeCallEvery, "accept_share": 1.0 / bikeProcs,
		"nominal_tuples_per_s": bikePlan.nominal, "ladder_tuples_per_s": bikePlan.ladder,
		"p99_limit_ms": bikePlan.limit / int64(time.Millisecond), "tuples": n, "setups": bikeSetups,
		"burst_period_ms": float64(burstPeriod) / nsPerMS, "class_seconds": classSeconds,
	}

	due := make([]int64, n1)
	late := make([]int64, n1)
	callDone := grow(nil, nCalls, -1)
	callDue := make([]int64, nCalls)
	aborted := make([]bool, nCalls)
	batchEnd := grow(nil, nBatches, -1)
	traced := func(int) bool { return false }
	var subA, subB, gpsA, gpsB, alertB, cSub, cA, cB, callTuple []int64
	if cfg.trace {
		// A traced run has no ladder: n == n1.
		zeroLayers(rep.layers)
		subA, subB, callTuple = make([]int64, n1), make([]int64, n1), make([]int64, nCalls)
		gpsA, gpsB, alertB = make([]int64, nBatches), make([]int64, nBatches), make([]int64, nBatches)
		cSub, cA, cB = make([]int64, nCalls), make([]int64, nCalls), make([]int64, nCalls)
		traced = func(i int) bool { return i >= nom.lo && i < nom.hi && tracedBlock(due[i]-due[nom.lo]) }
	}

	// Handler wrappers run on the single partition worker. bs_gps's return
	// ends its batch; a bs_alert it triggered (same BatchID) ends it later.
	var processed int64 // GPS tuples bs_gps has consumed
	var misaligned int
	var batchOf [1024]int // BatchID -> batch ordinal + 1, for bs_alert
	var callSeq int
	var callMismatch bool
	wrap := func(st *core.Store) {
		g := st.PE().Procedure("bs_gps")
		gh := g.Handler
		g.Handler = func(ctx *pe.ProcCtx) error {
			a := clk.now()
			err := gh(ctx)
			b := clk.now()
			if err != nil || len(ctx.Batch) == 0 {
				return err
			}
			processed += int64(len(ctx.Batch))
			last := tupleIndex(ctx.Batch[len(ctx.Batch)-1])
			if last < 0 {
				return nil // a set-up preload batch
			}
			if len(ctx.Batch) != bikeBatch || last%bikeBatch != bikeBatch-1 {
				if len(ctx.Batch) == bikeBatch {
					misaligned++
				}
				return nil // the final partial batch is not sampled
			}
			k := last / bikeBatch
			batchEnd[k] = b
			batchOf[ctx.BatchID%uint64(len(batchOf))] = k + 1
			if cfg.trace && traced(last) {
				gpsA[k], gpsB[k] = a, b
			}
			return nil
		}
		al := st.PE().Procedure("bs_alert")
		ah := al.Handler
		al.Handler = func(ctx *pe.ProcCtx) error {
			err := ah(ctx)
			b := clk.now()
			k := batchOf[ctx.BatchID%uint64(len(batchOf))] - 1
			if err == nil && k >= 0 && batchEnd[k] >= 0 {
				batchEnd[k] = b
				if cfg.trace {
					alertB[k] = b
				}
			}
			return err
		}
		if !cfg.trace {
			return
		}
		for _, name := range []string{"bs_checkout", "bs_return", "bs_accept_discount"} {
			p := st.PE().Procedure(name)
			h := p.Handler
			p.Handler = func(ctx *pe.ProcCtx) error {
				k := callSeq
				callSeq++
				if k >= nCalls || calls[k].proc != p.Name || ctx.Params[0].Int() != int64(calls[k].rider) {
					callMismatch = true
					return h(ctx)
				}
				a := clk.now()
				err := h(ctx)
				cA[k], cB[k] = a, clk.now()
				return err
			}
		}
	}

	var st *core.Store
	setups, err := timedSetups(bikeSetups, func(int) (func() error, error) {
		var err error
		if st, err = openBikeshare(); err != nil {
			return nil, err
		}
		wrap(st)
		if err := st.Start(); err != nil {
			return nil, err
		}
		for _, p := range pre {
			if err := st.Ingest("gps", gpsRow(p)); err != nil {
				return st.Stop, err
			}
		}
		st.Drain()
		return st.Stop, nil
	})
	if err != nil {
		return nil, err
	}
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}
	pre, processed = nil, 0 // count the run's tuples only
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
	col := startCollector(1<<14, func(c int, r pe.CallResult) { // holds any rung's call backlog
		callDone[c] = clk.now()
		switch {
		case isAbort(r.Err):
			aborted[c] = true
		case r.Err != nil:
			failed++
			if firstErr == nil {
				firstErr = r.Err
			}
		}
	})
	defer col.stop()

	var ingestErr error
	nextCall := 0
	sendCall := func(dueAt int64) int {
		c := nextCall
		nextCall++
		callDue[c] = dueAt
		col.submit(c, st.CallAsync(calls[c].proc, callParams(calls, c, ts0)...))
		return c
	}
	// send ingests tuple i and, unless the phase runs GPS tuples alone,
	// sends a call after every bikeCallEvery-th tuple.
	send := func(i int, only string) {
		var err error
		if traced(i) {
			a := clk.now()
			err = st.Ingest("gps", gpsRow(gps[i]))
			subA[i], subB[i] = a, clk.now()
		} else {
			err = st.Ingest("gps", gpsRow(gps[i]))
		}
		if err != nil && ingestErr == nil {
			ingestErr = err
		}
		if (i+1)%bikeCallEvery == 0 && only == "" {
			c := sendCall(due[i])
			if traced(i) {
				cSub[c], callTuple[c] = clk.now(), int64(i)
			}
		}
	}
	sent := 0
	runPhase := func(ph phase) {
		base := (clk.now()/burstPeriod + 2) * burstPeriod
		if ph.only == "call" {
			cph := phase{rate: total, hi: callsOnly}
			cdue, clate := make([]int64, callsOnly), make([]int64, callsOnly)
			fill(cdue, cph, base)
			pacer{clk: clk, period: burstPeriod}.run(cdue, clate, func(j int) { sendCall(cdue[j]) })
		} else {
			fill(due, ph, base)
			pacer{clk: clk, period: burstPeriod}.run(due[ph.lo:ph.hi], late[ph.lo:ph.hi], func(j int) { send(ph.lo+j, ph.only) })
			sent = ph.hi
		}
		col.sync()
		st.Drain()
	}
	// batchDue is the due time of each batch's last tuple.
	batchDue := make([]int64, nBatches)
	batchRange := func(lo, hi int) (int, int) { return (lo + bikeBatch - 1) / bikeBatch, hi / bikeBatch }

	runPhase(phases[0])
	m0, m1 := st.Metrics().Snapshot(), st.Metrics().Snapshot()
	var p0, p1 procSample
	var clo, chi int // the nominal phase's calls
	err = ladder(rep, bikePlan, rungsOf(phases), func(ph phase) ([]int64, []int64, int, int, error) {
		if ph.name == "nominal" {
			m0, p0, clo = st.Metrics().Snapshot(), readProc(), nextCall
			runPhase(ph)
			p1, m1, chi = readProc(), st.Metrics().Snapshot(), nextCall
			held := 32*len(gps) + 24*len(calls) + 8*(len(due)+len(late)+len(callDone)+len(callDue)+len(batchEnd)+len(batchDue)) +
				len(aborted) + 8*(len(subA)+len(subB)+len(gpsA)+len(gpsB)+len(alertB)+len(cSub)+len(cA)+len(cB)+len(callTuple))
			if err := putRSS(rep, held); err != nil {
				return nil, nil, 0, 0, err
			}
			_, gps = gpsFeed(cfg.seed, n)
			due, late = grow(due, n, 0), grow(late, n, 0)
			if !cfg.trace {
				// Each class's share of the nominal phase's ops and CPU.
				ops := map[string]int{"gps": nom.hi - nom.lo, "call": chi - clo}
				var classes []class
				for _, name := range bikePlan.classes {
					only := phases[phaseIndex["only-"+name]]
					sent0, calls0 := sent, nextCall
					cpu0, _ := processCPU()
					runPhase(only)
					cpu1, _ := processCPU()
					ran := float64(sent - sent0 + nextCall - calls0)
					classes = append(classes, class{name: name, ops: ops[name], cost: ratio(float64(cpu1-cpu0), ran)})
				}
				classShares(rep, p1.procCPU-p0.procCPU, classes)
			}
		} else {
			runPhase(ph)
		}
		klo, khi := batchRange(ph.lo, ph.hi)
		for k := klo; k < khi; k++ {
			batchDue[k] = due[k*bikeBatch+bikeBatch-1]
		}
		return batchDue, batchEnd, klo, khi, ingestErr
	})
	if err != nil {
		return nil, err
	}
	st.FlushBatches()
	st.Drain()
	col.stop()
	sentCalls := nextCall
	rep.attempted, rep.failed = int64(sent+sentCalls), failed
	if firstErr != nil {
		rep.check(false, "call failed: %v", firstErr)
	}

	// Oracles: app invariants, at most one discount per station, every
	// tuple consumed exactly once, and the aborts a sequential replay of
	// the same calls predicts.
	if err := bikeshare.Invariants(st); err != nil {
		rep.check(false, "%v", err)
	}
	dup, err := st.Query("SELECT station FROM discounts GROUP BY station HAVING COUNT(*) > 1")
	if err != nil {
		return nil, err
	}
	rep.check(len(dup.Rows) == 0, "%d stations hold more than one discount", len(dup.Rows))
	rep.check(processed == int64(sent), "bs_gps consumed %d tuples, %d sent", processed, sent)
	rep.check(misaligned == 0, "%d border batches did not end on a batch boundary", misaligned)
	rep.check(!callMismatch, "calls executed out of submission order")
	running = false
	if err := st.Stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	st = nil
	ref, err := openBikeshare()
	if err != nil {
		return nil, err
	}
	if err := ref.Start(); err != nil {
		return nil, err
	}
	aborts, refAborts, differ := 0, 0, 0
	for c := 0; c < sentCalls; c++ {
		_, err := ref.Call(calls[c].proc, callParams(calls, c, ts0)...)
		if err != nil && !isAbort(err) {
			ref.Stop()
			return nil, fmt.Errorf("replay call %d: %w", c, err)
		}
		if isAbort(err) {
			refAborts++
		}
		if aborted[c] {
			aborts++
		}
		if isAbort(err) != aborted[c] {
			differ++
		}
	}
	if err := ref.Stop(); err != nil {
		return nil, err
	}
	rep.check(aborts == refAborts && differ == 0, "aborts %d, sequential replay %d, %d calls differ", aborts, refAborts, differ)
	rep.detail["call_aborts"] = metric{float64(aborts), "count"}

	klo, khi := batchRange(nom.lo, nom.hi)
	putLatency(rep, "stream", batchDue, batchEnd, klo, khi)
	putLatency(rep, "call", callDue, callDone, clo, chi)
	putCPU(rep, p0, p1, nom.hi-nom.lo+chi-clo)
	if !cfg.trace {
		return rep, nil
	}

	L := rep.layers
	lateQ := newQuantiles(late[nom.lo:nom.hi])
	L["gen.late_p50_ms"] = metric{float64(lateQ.at(0.5)) / nsPerMS, "ms"}
	L["gen.late_p99_ms"] = metric{float64(lateQ.at(0.99)) / nsPerMS, "ms"}
	engineLayer(L, m1.Delta(m0), chi-clo, 0, nom.seconds)
	runtimeLayer(L, p0, p1, nom.hi-nom.lo+chi-clo)
	fillQ := make([]int64, 0, khi-klo)
	for k := klo; k < khi; k++ {
		fillQ = append(fillQ, due[k*bikeBatch+bikeBatch-1]-due[k*bikeBatch])
	}
	L["pe.batch_fill_ms"] = metric{float64(newQuantiles(fillQ).at(0.5)) / nsPerMS, "ms"}

	spans := &spanLog{spans: make([]span, 0, 6*(khi-klo)+6*(chi-clo))}
	var busy int64
	tracedBatches := 0
	for k := klo; k < khi; k++ {
		last := k*bikeBatch + bikeBatch - 1
		if !traced(last) || gpsB[k] == 0 {
			continue
		}
		tracedBatches++
		r := spans.add("request", batchDue[k], batchEnd[k], -1, int64(k))
		spans.add("gen.late", due[last], due[last]+late[last], r, int64(k))
		spans.add("core.submit", subA[last], subB[last], r, int64(k))
		spans.add("pe.queue", subB[last], max(gpsA[k], subB[last]), r, int64(k))
		spans.add("pe.exec", gpsA[k], gpsB[k], r, int64(k))
		if alertB[k] > 0 {
			spans.add("pe.trigger", gpsB[k], alertB[k], r, int64(k))
		}
		busy += gpsB[k] - gpsA[k]
	}
	for c := clo; c < chi; c++ {
		i := int(callTuple[c])
		if !traced(i) || cB[c] == 0 || callDone[c] < 0 {
			continue
		}
		r := spans.add("call", callDue[c], callDone[c], -1, int64(c))
		spans.add("pe.queue", cSub[c], max(cA[c], cSub[c]), r, int64(c))
		spans.add("pe.exec", cA[c], cB[c], r, int64(c))
		spans.add("pe.commit", cB[c], callDone[c], r, int64(c))
		busy += cB[c] - cA[c]
	}
	self := spans.selfTimes()
	spanLayer(L, self, "core.submit", "core.submit_us", false)
	spanLayer(L, self, "pe.queue", "pe.queue_us", true)
	spanLayer(L, self, "pe.exec", "pe.exec_us", true)
	spanLayer(L, self, "pe.commit", "pe.commit_us", true)
	// Traced blocks cover tracedBatches*16 tuples of the nominal rate.
	tracedSeconds := float64(tracedBatches*bikeBatch) / bikePlan.nominal
	L["pe.busy_frac"] = metric{ratio(float64(busy)/1e9, tracedSeconds), "frac"}
	isTracedBatch := func(k int) bool { return traced(k*bikeBatch + bikeBatch - 1) }
	L["trace.overhead_frac"] = metric{overheadFrac(
		latencies(batchDue, batchEnd, klo, khi, isTracedBatch),
		latencies(batchDue, batchEnd, klo, khi, func(k int) bool { return !isTracedBatch(k) }),
	), "frac"}
	rep.detail["traced_batches"] = metric{float64(tracedBatches), "count"}
	rep.spans = spans
	return rep, nil
}
