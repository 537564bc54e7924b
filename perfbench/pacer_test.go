package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// fakeClock advances only when the pacer sleeps (landing overshoot past the
// requested time, like a coarse OS timer) or when a send takes time.
type fakeClock struct {
	t         int64
	overshoot int64
	wakes     int
}

func (c *fakeClock) now() int64 { return c.t }

func (c *fakeClock) sleepUntil(t int64) {
	c.wakes++
	if t > c.t {
		c.t = t + c.overshoot
	}
}

const us = int64(time.Microsecond)
const ms = int64(time.Millisecond)

func evenDue(n int, gap int64) []int64 {
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i+1) * gap
	}
	return due
}

func TestPacerSendsEachOpOnceInOrderOnTheGrid(t *testing.T) {
	clk := &fakeClock{}
	due := evenDue(40, 250*us)
	late := make([]int64, len(due))
	var sent []int
	var sentAt []int64
	pacer{clk: clk, period: ms}.run(due, late, func(i int) {
		sent = append(sent, i)
		sentAt = append(sentAt, clk.now())
	})
	if len(sent) != len(due) {
		t.Fatalf("sent %d ops, want %d", len(sent), len(due))
	}
	for k, i := range sent {
		if i != k {
			t.Fatalf("op %d sent in position %d", i, k)
		}
		grid := (due[i] + ms - 1) / ms * ms
		if sentAt[k] != grid {
			t.Errorf("op %d (due %d) sent at %d, want the grid point %d", i, due[i], sentAt[k], grid)
		}
		if late[i] != grid-due[i] {
			t.Errorf("op %d late %d, want %d", i, late[i], grid-due[i])
		}
	}
	// Four ops per 1ms burst: one wake per burst, not one per op.
	if clk.wakes != 10 {
		t.Errorf("pacer woke %d times for 10 bursts", clk.wakes)
	}
}

func TestPacerCountsTimerOvershootAsLateness(t *testing.T) {
	clk := &fakeClock{overshoot: 50 * us}
	due := evenDue(5, ms)
	late := make([]int64, len(due))
	pacer{clk: clk, period: ms}.run(due, late, func(int) {})
	for i, l := range late {
		if l != 50*us {
			t.Errorf("op %d late %d, want the 50µs overshoot", i, l)
		}
	}
}

func TestPacerStallMakesLaterOpsLateWithoutDroppingThem(t *testing.T) {
	clk := &fakeClock{}
	due := evenDue(6, ms) // due at 1..6 ms
	late := make([]int64, len(due))
	n := 0
	pacer{clk: clk, period: ms}.run(due, late, func(i int) {
		n++
		if i == 0 {
			clk.t += 3500 * us // a synchronous request that blocks for 3.5ms
		}
	})
	if n != len(due) {
		t.Fatalf("sent %d ops, want %d", n, len(due))
	}
	// Ops 1-3 came due during the stall and went out at 4.5ms, late.
	want := []int64{0, 2500 * us, 1500 * us, 500 * us, 0, 0}
	for i := range want {
		if late[i] != want[i] {
			t.Errorf("op %d late %d, want %d", i, late[i], want[i])
		}
	}
}

func TestLayoutAndFill(t *testing.T) {
	phases, n := layout([]phase{{name: "a", rate: 1000, seconds: 2}, {name: "b", rate: 500, seconds: 0.5}})
	if n != 2250 || phases[0].lo != 0 || phases[0].hi != 2000 || phases[1].lo != 2000 || phases[1].hi != 2250 {
		t.Fatalf("layout = %+v, n = %d", phases, n)
	}
	due := make([]int64, n)
	fill(due, phases[1], 7*ms)
	if due[2000] != 7*ms || due[2001] != 9*ms || due[2249] != 7*ms+249*2*ms {
		t.Errorf("fill: due[2000..] = %d %d ... %d", due[2000], due[2001], due[2249])
	}
}

func TestJudgeRung(t *testing.T) {
	const rate = 1000.0 // 1 op per ms; a 10ms limit allows 10 ops outstanding
	due := evenDue(100, ms)
	finish := func(lat func(i int) int64) []int64 {
		done := make([]int64, len(due))
		for i := range done {
			done[i] = due[i] + lat(i)
		}
		return done
	}
	if r := judgeRung(due, finish(func(int) int64 { return 2 * ms }), 0, 100, rate, 10*ms); !r.pass || r.p99 != 2*ms {
		t.Errorf("steady 2ms: %+v, want pass with p99 2ms", r)
	}
	// Two slow ops in 100 put the p99 rank over the limit.
	if r := judgeRung(due, finish(func(i int) int64 {
		if i == 50 || i == 60 {
			return 11 * ms
		}
		return ms
	}), 0, 100, rate, 10*ms); r.pass {
		t.Errorf("p99 over the limit passed: %+v", r)
	}
	// A backlog at the end of the rung hides in the top 1% of latencies;
	// counting the ops still unfinished at the last due time catches it.
	long := evenDue(2000, ms)
	tail := make([]int64, len(long))
	for i := range tail {
		tail[i] = long[i] + ms
		if i >= 1980 {
			tail[i] = long[i] + 50*ms
		}
	}
	if r := judgeRung(long, tail, 0, 2000, rate, 10*ms); r.pass || r.p99 != ms || r.outstanding != 20 {
		t.Errorf("backlog at the end passed: %+v", r)
	}
	done := finish(func(int) int64 { return ms })
	done[3] = -1
	if r := judgeRung(due, done, 0, 100, rate, 10*ms); r.pass {
		t.Errorf("an op that never completed passed: %+v", r)
	}
}

func TestTracedBlocksAlternateBySecond(t *testing.T) {
	s := int64(time.Second)
	for _, c := range []struct {
		t    int64
		want bool
	}{{0, false}, {s - 1, false}, {s, true}, {2*s - 1, true}, {2 * s, false}, {3 * s, true}} {
		if got := tracedBlock(c.t); got != c.want {
			t.Errorf("tracedBlock(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestPhasesRunEachClassAloneBeforeTheLadder(t *testing.T) {
	p := plan{nominal: 100, ladder: []float64{200, 400}, classes: []string{"a", "b"}}
	phases, _ := runConfig{seconds: 20}.phases(p)
	var names []string
	for _, ph := range phases {
		names = append(names, ph.name)
	}
	want := "warmup nominal only-a only-b rung-200 rung-400"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("phases = %s, want %s", got, want)
	}
	if phases[2].only != "a" || phases[2].seconds != classSeconds {
		t.Errorf("only-a = %+v", phases[2])
	}
	// The ladder shares what the nominal and one-class phases leave.
	if rung := (1-nominalShare)*20/2 - classSeconds; math.Abs(phases[4].seconds-rung) > 1e-9 {
		t.Errorf("rung seconds = %g, want %g", phases[4].seconds, rung)
	}
	var judged []string
	for _, ph := range rungsOf(phases) {
		judged = append(judged, ph.name)
	}
	if got := strings.Join(judged, " "); got != "nominal rung-200 rung-400" {
		t.Errorf("rungsOf = %s", got)
	}
	traced, _ := runConfig{seconds: 20, trace: true}.phases(p)
	if len(traced) != 2 || traced[1].seconds != 20 {
		t.Errorf("traced phases = %+v", traced)
	}
	// A second stream laid out again keeps names and lengths.
	second, n := relayout(phases, func(ph phase) float64 {
		if ph.only != "" {
			return 0
		}
		return ph.rate / 2
	})
	if second[2].name != "only-a" || second[2].hi != second[2].lo || second[1].hi-second[1].lo != 600 || n != second[len(second)-1].hi {
		t.Errorf("relayout = %+v, n = %d", second, n)
	}
}

func TestClassShares(t *testing.T) {
	// The nominal phase ran 100 ops of a and 300 of b on 10 000 µs of CPU.
	// Alone, a costs 40 µs per op and b 10: 4 000 and 3 000 µs.
	rep := newReport()
	classShares(rep, 10000, []class{{name: "a", ops: 100, cost: 40}, {name: "b", ops: 300, cost: 10}})
	for name, want := range map[string]float64{
		"class_ops_share.a": 0.25, "class_ops_share.b": 0.75,
		"class_cpu_share.a": 4.0 / 7, "class_cpu_share.b": 3.0 / 7,
		"class_cpu_us_per_op.a": 40, "class_cpu_us_per_op.b": 10, "class_cpu_explained": 0.7,
	} {
		if got := rep.detail[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
