package main

import (
	"math"
	"time"
)

// clock is the pacer's time source, in nanoseconds since an origin. Tests
// substitute a fake one; the benchmark uses the monotonic wall clock.
type clock interface {
	now() int64
	sleepUntil(t int64)
}

type wallClock struct{ t0 time.Time }

func newWallClock() wallClock { return wallClock{t0: time.Now()} }

func (c wallClock) now() int64 { return int64(time.Since(c.t0)) }

func (c wallClock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// burstPeriod is the pacer's wake-up grid. A sleep on this host overshoots
// by about a millisecond however short it asks for, so sleeping once per
// request would measure the timer; waking on a fixed grid and sending
// everything that has come due keeps the offered rate exact.
const burstPeriod = int64(time.Millisecond)

// pacer drives an open-loop schedule: the send times are fixed in advance
// and do not wait for the system, so a stall delays every request behind
// it and each request's latency counts from when it was due.
type pacer struct {
	clk    clock
	period int64
}

// run sends op i of due (absolute clock times, ascending) once it is due.
// It wakes on the period grid and sends every op already due in one burst,
// recording late[i] = burst wake - due[i]. send may block (a synchronous
// client); the ops that come due meanwhile go out in the next burst, late.
// run allocates nothing per op.
func (p pacer) run(due, late []int64, send func(i int)) {
	for i := 0; i < len(due); {
		wake := p.clk.now()
		if due[i] > wake {
			next := (due[i] + p.period - 1) / p.period * p.period
			p.clk.sleepUntil(next)
			continue
		}
		for i < len(due) && due[i] <= wake {
			late[i] = wake - due[i]
			send(i)
			i++
		}
	}
}

// phase is one stretch of a schedule at a fixed rate: ops [lo, hi).
type phase struct {
	name    string
	only    string  // the one op class this phase runs, if any
	rate    float64 // primary ops per second
	seconds float64
	lo, hi  int
}

// layout assigns consecutive op ranges [lo, hi) to phases, round(rate *
// seconds) ops each, and returns the total op count.
func layout(specs []phase) ([]phase, int) {
	out := make([]phase, len(specs))
	n := 0
	for k, s := range specs {
		s.lo = n
		n += int(math.Round(s.rate * s.seconds))
		s.hi = n
		out[k] = s
	}
	return out, n
}

// fill sets the due times of ph's ops, evenly spaced from base.
func fill(due []int64, ph phase, base int64) {
	gap := 1e9 / ph.rate
	for i := ph.lo; i < ph.hi; i++ {
		due[i] = base + int64(float64(i-ph.lo)*gap)
	}
}

// rung is the verdict on one rate of a workload's ladder.
type rung struct {
	p99         int64 // ns, primary latency from due time
	outstanding int   // ops due in the rung still unfinished at its last due time
	pass        bool
}

// judgeRung applies the sustainable-rate rule to ops [lo, hi): the p99 of
// their latency (done - due) must meet limit, and the ops still unfinished
// when the last one was due must fit in limit's worth of arrivals, so the
// backlog is not growing. done[i] < 0 marks an op that never completed.
func judgeRung(due, done []int64, lo, hi int, rate float64, limit int64) rung {
	var r rung
	if hi <= lo {
		return r
	}
	lat := make([]int64, 0, hi-lo)
	last := due[hi-1]
	failed := false
	for i := lo; i < hi; i++ {
		if done[i] < 0 {
			failed = true
			r.outstanding++
			continue
		}
		lat = append(lat, done[i]-due[i])
		if done[i] > last {
			r.outstanding++
		}
	}
	r.p99 = newQuantiles(lat).at(0.99)
	allowed := int(rate * float64(limit) / 1e9)
	r.pass = !failed && r.p99 <= limit && r.outstanding <= allowed
	return r
}
