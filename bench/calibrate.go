package main

import (
	"fmt"
	"time"
)

// The machines this benchmark runs on are shared, and their speed varies
// by up to 75% between runs minutes apart while nothing in the benchmark
// changes: other tenants contend for the same cores and caches, and no
// steal time shows. Raw wall time therefore spreads further between runs
// than any useful bound. Every scenario is timed next to a run of a fixed
// calibration kernel, and its host time is scaled by how much slower or
// faster than nominal the kernel ran just then. The scaled figure reads as host time
// on the reference machine at rest; the raw wall time is printed beside it.
//
// The kernel imitates the simulator's hot paths without sharing any of its
// code, so no change to the simulator moves it: a 4-ary min-heap of
// pointer events ordered by (time, seq), one small allocation per event,
// and a string-keyed map lookup per event.

// refNominalNs is the kernel's run time on the reference machine (see
// baseline.json) when it is quiet.
const refNominalNs = 5.5e6

// refWindow is how many recent kernel runs set one scenario's scale: the
// median of a few damps the kernel's own noise and still follows drift.
const refWindow = 8

type calEvent struct {
	t   int64
	seq uint64
	sym int
}

type calHeap []*calEvent

func calLess(a, b *calEvent) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }

func (h *calHeap) push(e *calEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if calLess(s[p], e) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

func (h *calHeap) pop() *calEvent {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	if len(s) == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= len(s) {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < len(s); j++ {
			if calLess(s[j], s[m]) {
				m = j
			}
		}
		if calLess(last, s[m]) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}

var calSymbols = func() []string {
	out := make([]string, 512)
	for i := range out {
		out[i] = fmt.Sprintf("kernel_symbol_%03d_%c", i, 'a'+i%26)
	}
	return out
}()

// calSink keeps the kernel's result live so the compiler cannot drop it.
var calSink int

// calibrate runs the kernel once and returns its wall time in ns.
func calibrate() int64 {
	start := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	index := make(map[string]int, len(calSymbols))
	for i, s := range calSymbols {
		index[s] = i
	}
	var h calHeap
	var seq uint64
	for i := 0; i < 64; i++ {
		seq++
		h.push(&calEvent{t: int64(next() % 1000), seq: seq, sym: i})
	}
	acc := 0
	for n := 0; n < 60000; n++ {
		e := h.pop()
		acc += index[calSymbols[(e.sym+int(e.t))%len(calSymbols)]]
		seq++
		h.push(&calEvent{t: e.t + int64(next()%1000), seq: seq, sym: e.sym})
	}
	calSink = acc
	return time.Since(start).Nanoseconds()
}

// scales returns, for each kernel run time in refNs, the factor that takes
// a time measured beside it to the reference machine at rest: nominal over
// the median of that run and the refWindow-1 before it.
func scales(refNs []int64) []float64 {
	out := make([]float64, len(refNs))
	for i := range refNs {
		lo := max(0, i-refWindow+1)
		win := make([]float64, 0, refWindow)
		for _, r := range refNs[lo : i+1] {
			win = append(win, float64(r))
		}
		out[i] = refNominalNs / median(win)
	}
	return out
}
