package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent indexes the enclosing span (-1 for the request root).
// Times are nanoseconds on the run's clock.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// spanLog keeps a run's spans in memory; they are written out when the run
// ends, so recording costs no I/O.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(name string, start, end int64, parent int32, req int64) int32 {
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, req: req})
	return int32(len(l.spans) - 1)
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the part of it that its child spans cover.
func (l *spanLog) selfTimes() map[string][]int64 {
	children := make([][]int32, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := map[string][]int64{}
	var iv [][2]int64
	for i, s := range l.spans {
		iv = iv[:0]
		for _, c := range children[i] {
			cs := l.spans[c]
			a, b := max(cs.start, s.start), min(cs.end, s.end)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		out[s.name] = append(out[s.name], s.end-s.start-covered(iv))
	}
	return out
}

// covered returns the length of the union of intervals (sorted in place).
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores the spans as gzip'd CSV: name,start_ns,end_ns,parent,req.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
