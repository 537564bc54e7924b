package main

import (
	"math/rand"
	"testing"
)

func TestQuantileIsNearestRankOverAllSamples(t *testing.T) {
	samples := make([]int64, 100)
	for i := range samples {
		samples[i] = int64(100 - i) // 100..1, unsorted
	}
	q := newQuantiles(samples)
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.505, 51}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := q.at(c.p); got != c.want {
			t.Errorf("at(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if samples[0] != 100 {
		t.Error("newQuantiles reordered its input")
	}
	if q.n() != 100 || q.max() != 100 {
		t.Errorf("n = %d, max = %d", q.n(), q.max())
	}
	if got := newQuantiles(nil).at(0.99); got != 0 {
		t.Errorf("empty at(0.99) = %d", got)
	}
	if got := newQuantiles([]int64{7}).at(0.99); got != 7 {
		t.Errorf("single sample at(0.99) = %d", got)
	}
}

// An early burst of slow samples must show in the tail however many fast
// samples follow it; a recent-samples ring would report only the fast ones.
func TestQuantileKeepsAnEarlyBurst(t *testing.T) {
	const n = 200000
	samples := make([]int64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range samples {
		samples[i] = 10*us + rng.Int63n(us)
		if i < n/50 { // the first 2%
			samples[i] = 50 * ms
		}
	}
	q := newQuantiles(samples)
	if got := q.at(0.99); got != 50*ms {
		t.Errorf("p99 = %d, want the 50ms burst", got)
	}
	if got := q.at(0.5); got >= 11*us {
		t.Errorf("p50 = %d, want a fast sample", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	var l spanLog
	r := l.add("request", 0, 100, -1, 1)
	l.add("a", 10, 30, r, 1)
	l.add("b", 20, 50, r, 1) // overlaps a: the union is 10..50
	l.add("c", 60, 70, r, 1)
	l.add("d", 95, 120, r, 1) // clipped to the parent's end
	self := l.selfTimes()
	if got := self["request"][0]; got != 100-40-10-5 {
		t.Errorf("request self time = %d, want 45", got)
	}
	if got := self["b"][0]; got != 30 {
		t.Errorf("leaf self time = %d, want its duration", got)
	}
}
