package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/pe"
)

// plan fixes a workload's offered load, in its primary operations.
type plan struct {
	nominal float64   // ops/s of the measured phase
	ladder  []float64 // rates tried after it, ascending, for max_rate
	limit   int64     // p99 latency limit on the primary operation, ns
	// perOp is how many primary ops one judged op stands for (a stream
	// workload judges border batches, not tuples); 0 means 1.
	perOp float64
	// classes are the op classes of a mixed workload. After the nominal
	// phase an untraced run runs each alone for classSeconds, at the
	// nominal phase's total op rate, to measure its CPU per op (see
	// classShares).
	classes []string
}

const warmupSeconds = 1.0

// nominalShare is the part of an untraced run spent at the nominal rate;
// the one-class phases, then the ladder rungs, share the rest.
const nominalShare = 0.6

// classSeconds is the length of each phase that runs one class alone.
const classSeconds = 1.5

// phases lays out a run: an unmeasured warm-up at the nominal rate, the
// measured nominal phase, then (untraced runs only) one phase per class
// running it alone and one phase per ladder rung. A traced run spends all
// its measured time at the nominal rate. A workload sets the one-class
// phases' rates with relayout.
func (c runConfig) phases(p plan) ([]phase, int) {
	specs := []phase{{name: "warmup", rate: p.nominal, seconds: warmupSeconds}}
	if c.trace {
		specs = append(specs, phase{name: "nominal", rate: p.nominal, seconds: c.seconds})
		return layout(specs)
	}
	specs = append(specs, phase{name: "nominal", rate: p.nominal, seconds: nominalShare * c.seconds})
	for _, class := range p.classes {
		specs = append(specs, phase{name: "only-" + class, only: class, rate: p.nominal, seconds: classSeconds})
	}
	// A run too short for the ladder gets empty rungs, which fail.
	rest := max((1-nominalShare)*c.seconds-classSeconds*float64(len(p.classes)), 0)
	rungSec := rest / float64(len(p.ladder))
	for _, r := range p.ladder {
		specs = append(specs, phase{name: fmt.Sprintf("rung-%g", r), rate: r, seconds: rungSec})
	}
	return layout(specs)
}

// rungsOf returns the phases the ladder judges: the nominal phase, then
// the rungs.
func rungsOf(phases []phase) []phase {
	var out []phase
	for _, ph := range phases[1:] {
		if ph.only == "" {
			out = append(out, ph)
		}
	}
	return out
}

// relayout lays phases out again for a second op stream of the same run,
// at the rate rate gives each phase.
func relayout(phases []phase, rate func(ph phase) float64) ([]phase, int) {
	specs := make([]phase, len(phases))
	for k, ph := range phases {
		specs[k] = phase{name: ph.name, only: ph.only, rate: rate(ph), seconds: ph.seconds}
	}
	return layout(specs)
}

// grow extends s to n entries, the new ones set to v. The workloads size
// their per-op arrays for the warm-up and nominal phases and grow them for
// the rest after the nominal phase's peak RSS is read, so that the peak
// does not count the arrays of phases still to come.
func grow(s []int64, n int, v int64) []int64 {
	for len(s) < n {
		s = append(s, v)
	}
	return s
}

// tracedBlock says whether an op due at t (ns after the nominal phase
// began) falls in a traced block. A traced run alternates one-second
// untraced and traced blocks, so trace.overhead_frac compares two halves
// that saw the same table growth and the same background work.
func tracedBlock(t int64) bool { return (t/int64(time.Second))%2 == 1 }

// timedSetups builds the system k times and returns each build's set-up
// time in seconds. Every build but the last is torn down before the next
// one starts; the last one is left running for the measurement.
func timedSetups(k int, build func(i int) (teardown func() error, err error)) ([]float64, error) {
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		teardown, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		out = append(out, time.Since(t0).Seconds())
		if i < k-1 {
			if err := teardown(); err != nil {
				return nil, fmt.Errorf("tear-down %d: %w", i, err)
			}
			// Collect the torn-down build now, so builds do not pile up in
			// the heap and the peak RSS does not depend on GC timing.
			runtime.GC()
		}
	}
	return out, nil
}

// latencies returns done[i]-due[i] for every completed op of [lo, hi) that
// keep accepts (nil keeps all), in ns.
func latencies(due, done []int64, lo, hi int, keep func(i int) bool) []int64 {
	out := make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if done[i] >= 0 && (keep == nil || keep(i)) {
			out = append(out, done[i]-due[i])
		}
	}
	return out
}

// putLatency reports, as detail figures, the p50, p90, p95, p99, maximum
// and sample count of the latency (done - due) of ops [lo, hi) in ms under
// prefix. No latency is gated: on a 2-vCPU host shared with other
// tenants, a run that overlaps a burst of disk or CPU contention moves even
// voter-oltp's median by half (see README.md).
func putLatency(rep *report, prefix string, due, done []int64, lo, hi int) {
	q := newQuantiles(latencies(due, done, lo, hi, nil))
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99}, {"max", 1}} {
		rep.detail[prefix+"_"+p.name+"_ms"] = metric{float64(q.at(p.q)) / nsPerMS, "ms"}
	}
	rep.detail[prefix+"_samples"] = metric{float64(q.n()), "count"}
}

// putCPU reports the process CPU time (user + system, generator included)
// per operation of the nominal phase, between samples a and b, and as
// details its system-time part and the GC cycles the phase ran.
func putCPU(rep *report, a, b procSample, ops int) {
	rep.endToEnd["cpu_us_per_op"] = metric{ratio(float64(b.procCPU-a.procCPU), float64(ops)), "us"}
	rep.detail["cpu_sys_us_per_op"] = metric{ratio(float64(b.sysCPU-a.sysCPU), float64(ops)), "us"}
	rep.detail["gc_cycles"] = metric{float64(b.numGC - a.numGC), "count"}
}

// pendingCall is a submitted call awaiting its result; ch == nil marks the
// end of a phase.
type pendingCall struct {
	i  int
	ch <-chan pe.CallResult
}

// collector is the generator's second goroutine: it reaps submitted calls'
// results in submission order, so the pacer never waits for a result.
type collector struct {
	pending   chan pendingCall
	phaseDone chan struct{}
	exit      chan struct{}
	stopOnce  sync.Once
}

// startCollector starts the goroutine; reap runs on it for every result.
// buf must hold the most calls a phase can leave unreaped, so a stalled
// engine delays results, not sends.
func startCollector(buf int, reap func(i int, r pe.CallResult)) *collector {
	c := &collector{
		pending:   make(chan pendingCall, buf),
		phaseDone: make(chan struct{}),
		exit:      make(chan struct{}),
	}
	go func() {
		defer close(c.exit)
		for pc := range c.pending {
			if pc.ch == nil {
				c.phaseDone <- struct{}{}
				continue
			}
			reap(pc.i, <-pc.ch)
		}
	}()
	return c
}

func (c *collector) submit(i int, ch <-chan pe.CallResult) { c.pending <- pendingCall{i: i, ch: ch} }

// sync returns once every call submitted so far has been reaped.
func (c *collector) sync() {
	c.pending <- pendingCall{}
	<-c.phaseDone
}

// stop reaps the calls still pending and waits for the goroutine to exit.
func (c *collector) stop() {
	c.stopOnce.Do(func() {
		close(c.pending)
		<-c.exit
	})
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak RSS (VmHWM) from the current resident set, so that the peak read
// after the nominal phase covers the warm-up and nominal phases only, not
// the set-ups or input generation before them.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// putRSS reports the process's peak resident set since resetPeakRSS, and,
// as a detail, the bytes of inputs and per-op arrays the generator held
// in it (heldBytes).
func putRSS(rep *report, heldBytes int) error {
	rss, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	rep.endToEnd["rss_peak_mb"] = metric{rss, "MiB"}
	rep.detail["gen_held_mb"] = metric{float64(heldBytes) / (1 << 20), "MiB"}
	return nil
}

// class is one op class of a mixed workload: the ops it ran in the
// nominal phase, and its process CPU per op (µs) when run alone.
type class struct {
	name string
	ops  int
	cost float64
}

// classShares reports each class's share of the nominal phase's ops and
// of its process CPU, and its CPU per op alone. The CPU share is the
// class's ops times its cost, over the same sum for every class. Each
// class runs alone at the nominal phase's total op rate, so the costs per
// second that do not depend on the mix (pacer wake-ups, timers,
// background GC) are spread over as many ops as in the mix.
// class_cpu_explained compares the costs with the mix: the sum over
// classes of ops times cost, over the nominal phase's process CPU
// (nominalCPU, µs); it is 1 when the classes cost alone what they cost
// together.
func classShares(rep *report, nominalCPU int64, classes []class) {
	total, work := 0, 0.0
	for _, c := range classes {
		total += c.ops
		work += float64(c.ops) * c.cost
	}
	for _, c := range classes {
		rep.detail["class_ops_share."+c.name] = metric{ratio(float64(c.ops), float64(total)), "frac"}
		rep.detail["class_cpu_share."+c.name] = metric{ratio(float64(c.ops)*c.cost, work), "frac"}
		rep.detail["class_cpu_us_per_op."+c.name] = metric{c.cost, "us"}
	}
	rep.detail["class_cpu_explained"] = metric{ratio(work, float64(nominalCPU)), "frac"}
}

// ladder judges the nominal phase and then each rung in order, and reports
// the highest rate that passed as max_rate. The climb stops after two
// failing rungs in a row, so one rung spoiled by a passing stall does not
// end it. rungs holds the phases to judge, nominal first; run executes one
// phase and returns the due and done times of its judged ops. max_rate is
// a detail figure, not a gated one: on a 2-vCPU host the rung where a
// workload tips over moves by a quarter or more from run to run.
func ladder(rep *report, p plan, rungs []phase, run func(ph phase) (due, done []int64, lo, hi int, err error)) error {
	best, fails := 0.0, 0
	for _, ph := range rungs {
		due, done, lo, hi, err := run(ph)
		if err != nil {
			return err
		}
		r := judgeRung(due, done, lo, hi, ph.rate/max(p.perOp, 1), p.limit)
		rep.detail["ladder_p99_ms@"+fmt.Sprint(ph.rate)] = metric{float64(r.p99) / nsPerMS, "ms"}
		rep.detail["ladder_outstanding@"+fmt.Sprint(ph.rate)] = metric{float64(r.outstanding), "count"}
		if r.pass {
			best, fails = ph.rate, 0
		} else if fails++; fails == 2 {
			break
		}
	}
	rep.detail["max_rate"] = metric{best, "1/s"}
	return nil
}

// engineLayer derives the per-layer counts of the engine's own counters
// over one interval (d is the counter delta, calls the direct invocations
// the benchmark made, seconds the interval's length).
func engineLayer(out map[string]metric, d metrics.Snapshot, calls, queries int, seconds float64) {
	txns := float64(d.TxnCommitted + d.TxnAborted)
	out["pe.abort_frac"] = metric{ratio(float64(d.TxnAborted), txns), "frac"}
	out["pe.triggered_per_border"] = metric{ratio(float64(d.TriggeredTxns), float64(d.BatchesBorder)), "count"}
	out["ee.stmts_per_txn"] = metric{ratio(float64(d.PEToEE), txns), "count"}
	out["ee.window_slides_per_s"] = metric{ratio(float64(d.WindowSlides), seconds), "1/s"}
	out["wal.records_per_call"] = metric{ratio(float64(d.LogRecords), float64(calls)), "count"}
	out["wal.bytes_per_call"] = metric{ratio(float64(d.LogBytes), float64(calls)), "B"}
	out["storage.versions_retained"] = metric{float64(d.VersionsRetained), "count"}
	out["storage.gc_reclaimed_per_txn"] = metric{ratio(float64(d.GCVersionsReclaimed), txns), "count"}
	out["storage.cold_faults_per_query"] = metric{ratio(float64(d.ColdFaults), float64(queries)), "count"}
	out["storage.resident_mb"] = metric{float64(d.ColdResidentBytes) / (1 << 20), "MiB"}
	out["core.legs_per_query"] = metric{ratio(float64(d.SnapshotReads), float64(queries)), "count"}
}

// spanLayer reports the p50 (and p99 when wantP99) of one span name's self
// times in µs.
func spanLayer(out map[string]metric, self map[string][]int64, span, name string, wantP99 bool) {
	q := newQuantiles(self[span])
	out[name+"_p50"] = metric{float64(q.at(0.50)) / nsPerUS, "us"}
	if wantP99 {
		out[name+"_p99"] = metric{float64(q.at(0.99)) / nsPerUS, "us"}
	}
}
