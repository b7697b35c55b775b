package main

import (
	"errors"
	"testing"
	"time"
)

// TestFailedJobFailsRun: a refused or failed job makes the run incorrect
// even when every output that did arrive was right.
func TestFailedJobFailsRun(t *testing.T) {
	defs := []metricDef{{"x", "ms", "lower", 0.1}}
	ok := &jobRec{job: &job{}}
	for _, c := range []struct {
		name string
		recs []*jobRec
		want bool
	}{
		{"all done", []*jobRec{ok, ok}, true},
		{"one refused", []*jobRec{ok, {job: &job{}, refused: true, err: errors.New("submit: 503")}}, false},
		{"nothing attempted", nil, false},
	} {
		h := &harness{out: newOutputs(), recs: c.recs}
		rep, err := h.report(defs, map[string]float64{"x": 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct != c.want || rep.Attempted != len(c.recs) {
			t.Errorf("%s: correct=%v attempted=%d, want correct=%v attempted=%d", c.name, rep.Correct, rep.Attempted, c.want, len(c.recs))
		}
	}
}

// TestBusyTimeIsUnionOfJobs: cells_per_s divides by the time at least one
// job was outstanding, counting overlapping jobs once and gaps not at all.
// Open-loop jobs count from when they were due.
func TestBusyTimeIsUnionOfJobs(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	twoCells := &job{cells: make([]cell, 2)}
	h := &harness{recs: []*jobRec{
		{job: twoCells, sent: at(0), done: at(10)},
		{job: twoCells, sent: at(5), done: at(20)},                                       // overlaps: +10
		{job: twoCells, open: true, due: at(30), sent: at(35), done: at(40)},             // after a gap: +10
		{job: twoCells, sent: at(50), done: at(60), err: errors.New("job ended failed")}, // not counted
	}}
	lat, cells, busy := h.latencies()
	if busy != 30*time.Millisecond || cells != 6 || len(lat) != 3 || lat[2] != 10 {
		t.Errorf("busy %v, cells %d, latencies %v; want 30ms, 6, [10 15 10]", busy, cells, lat)
	}
}
