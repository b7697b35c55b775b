package main

import (
	"testing"
	"time"
)

// TestPartitionAccountsForWallTime: every microsecond of a job's wall time
// lands in exactly one stage, the highest-priority span covering it.
func TestPartitionAccountsForWallTime(t *testing.T) {
	sent := time.Unix(1000, 0)
	at := func(us int64) time.Time { return sent.Add(time.Duration(us) * time.Microsecond) }
	r := &jobRec{sent: sent, accepted: at(100), fetchSent: at(1500), done: at(1600)}
	tr := jobTrace{spans: []traceSpan{
		{"queue.wait", 0, 300},
		{"sweep", 300, 1000}, // 300..1300
		{"store.get", 310, 20},
		{"store.flight", 330, 900}, // 330..1230
		{"simulate", 340, 700},     // 340..1040
		{"store.put", 1040, 150},   // 1040..1190
		{"render", 1310, 40},       // after a 10µs gap
		{"merge", 1350, 50},        // 1350..1400
	}}
	stages, wall := partition(r, tr)
	want := map[int]int64{
		stSubmit:      100, // 0..100 beats queue.wait
		stQueueWait:   200,
		stSweepSelf:   10 + 70, // 300..310 and 1230..1300
		stStoreGet:    20,
		stFlightWait:  10 + 40, // 330..340 and 1190..1230
		stSimulate:    700,
		stStorePut:    150,
		stUnexplained: 10, // 1300..1310
		stRender:      40,
		stMerge:       50,
		stPoll:        100, // 1400..1500
		stFetch:       100,
	}
	var sum int64
	for st, v := range stages {
		sum += v
		if v != want[st] {
			t.Errorf("%s = %dµs, want %d", stageMetrics[st], v, want[st])
		}
	}
	if wall != 1600 || sum != wall {
		t.Errorf("stages sum to %dµs of %dµs wall time", sum, wall)
	}

	// A trace that dropped spans cannot tell sweep self time from the
	// missing cell spans; that time is reported as overflow instead.
	tr.dropped = 5
	stages, _ = partition(r, tr)
	if stages[stSweepSelf] != 0 || stages[stOverflow] != 80 {
		t.Errorf("with dropped spans: self %d, overflow %d; want 0 and 80", stages[stSweepSelf], stages[stOverflow])
	}
}

func TestParseJobTraceKeepsLifecycleSpans(t *testing.T) {
	data := []byte(`[
		{"name":"process_name","ph":"M","ts":0,"dur":0,"pid":1,"tid":0,"args":{"name":"job-000001"}},
		{"name":"trace.dropped_spans","ph":"M","ts":0,"dur":0,"pid":1,"tid":0,"args":{"dropped":"42"}},
		{"name":"queue.wait","ph":"X","ts":0,"dur":5,"pid":1,"tid":1},
		{"name":"NDCONV","ph":"X","ts":3,"dur":900,"pid":1,"tid":2},
		{"name":"store.get","ph":"X","ts":7,"dur":2,"pid":1,"tid":3,"args":{"outcome":"miss"}}
	]`)
	tr, err := parseJobTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if tr.dropped != 42 || len(tr.spans) != 2 || tr.spans[1] != (traceSpan{"store.get", 7, 2}) || tr.bytes != len(data) {
		t.Errorf("parsed %+v", tr)
	}
}
