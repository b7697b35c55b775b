package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"
)

// The per-layer breakdown splits every job's wall time, as the generator
// measured it, into stages. Server-side stages come from the job's own
// trace (GET /jobs/{id}/trace); only the lifecycle spans the server and the
// sweep engine record are read, never the cycle-stamped simulator op spans.
// Client-side stages are the HTTP round trips the generator timed itself.
//
// Each instant of the job's wall time goes to exactly one stage: the first
// in stageOrder whose span covers it, or to "unexplained" when none does.
// The stage shares of a job therefore sum to one by construction, and a
// layer's share is its self time — a cell's simulate time is not also
// counted as sweep or store.flight time.
//
// The trace's time origin is the moment the server accepted the job; it is
// placed at the instant the generator sent the POST, so the request's
// one-way transit (microseconds) shifts server spans slightly early.

// Stages, in the order they claim time where spans overlap.
const (
	stSimulate   = iota // simulate: compile + simulation of a cell
	stStorePut          // store.put: blob write
	stPredict           // predict: learned fast path
	stStoreGet          // store.get: lookup and decode
	stFlightWait        // store.flight outside simulate and put: waiting on a coalesced leader
	stRender            // render: result table
	stMerge             // merge: job telemetry into the server registry
	stSweepSelf         // sweep outside every cell span: grid expansion, store keys, scheduling
	stOverflow          // sweep outside cell spans in a job whose trace dropped spans
	stSubmit            // POST /jobs round trip
	stFetch             // GET /jobs/{id}/result round trip
	stQueueWait         // queue.wait outside the submit round trip
	stPoll              // from the last server span to the result request: completion detection
	stUnexplained
	numStages
)

// stageMetrics names each stage's share metric.
var stageMetrics = [numStages]string{
	stSimulate:    "sweep.simulate_share",
	stStorePut:    "sweep.store_put_share",
	stPredict:     "sweep.predict_share",
	stStoreGet:    "sweep.store_get_share",
	stFlightWait:  "sweep.flight_wait_share",
	stRender:      "sweep.render_share",
	stMerge:       "telemetry.merge_share",
	stSweepSelf:   "sweep.self_share",
	stOverflow:    "sweep.overflow_share",
	stSubmit:      "server.submit_share",
	stFetch:       "server.fetch_share",
	stQueueWait:   "server.queue_wait_share",
	stPoll:        "bench.poll_share",
	stUnexplained: "bench.unexplained_share",
}

// spanStage maps the lifecycle span names to stages.
var spanStage = map[string]int{
	"simulate":     stSimulate,
	"store.put":    stStorePut,
	"predict":      stPredict,
	"store.get":    stStoreGet,
	"store.flight": stFlightWait,
	"render":       stRender,
	"merge":        stMerge,
	"sweep":        stSweepSelf,
	"queue.wait":   stQueueWait,
}

// traceSpan is one lifecycle span, in µs from the trace origin.
type traceSpan struct {
	name       string
	start, dur int64
}

// jobTrace is the part of a job's Chrome trace the breakdown reads.
type jobTrace struct {
	spans   []traceSpan
	dropped int64 // spans the server's per-lane cap discarded
	bytes   int
}

func parseJobTrace(data []byte) (jobTrace, error) {
	var events []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Ts   int64           `json:"ts"`
		Dur  int64           `json:"dur"`
		Args json.RawMessage `json:"args"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		return jobTrace{}, fmt.Errorf("job trace: %w", err)
	}
	t := jobTrace{bytes: len(data)}
	for _, e := range events {
		switch {
		case e.Ph == "X":
			if _, ok := spanStage[e.Name]; ok {
				t.spans = append(t.spans, traceSpan{e.Name, e.Ts, e.Dur})
			}
		case e.Ph == "M" && e.Name == "trace.dropped_spans":
			var args struct{ Dropped string }
			if err := json.Unmarshal(e.Args, &args); err != nil {
				return jobTrace{}, fmt.Errorf("job trace: %w", err)
			}
			n, err := strconv.ParseInt(args.Dropped, 10, 64)
			if err != nil {
				return jobTrace{}, fmt.Errorf("job trace: dropped spans: %w", err)
			}
			t.dropped = n
		}
	}
	return t, nil
}

// interval is a stage's claim on [a, b) µs of a job's wall time.
type interval struct {
	stage int
	a, b  int64
}

// partition splits a completed job's wall time into stage times (µs).
func partition(r *jobRec, t jobTrace) (stages [numStages]int64, wall int64) {
	rel := func(at time.Time) int64 { return at.Sub(r.sent).Microseconds() }
	wall = rel(r.done)
	ivs := []interval{
		{stSubmit, 0, rel(r.accepted)},
		{stFetch, rel(r.fetchSent), wall},
	}
	var serverEnd int64
	for _, s := range t.spans {
		st := spanStage[s.name]
		if st == stSweepSelf && t.dropped > 0 {
			st = stOverflow
		}
		ivs = append(ivs, interval{st, s.start, s.start + s.dur})
		serverEnd = max(serverEnd, s.start+s.dur)
	}
	ivs = append(ivs, interval{stPoll, serverEnd, rel(r.fetchSent)})

	cuts := []int64{0, wall}
	for i := range ivs {
		ivs[i].a = min(max(ivs[i].a, 0), wall)
		ivs[i].b = min(max(ivs[i].b, 0), wall)
		cuts = append(cuts, ivs[i].a, ivs[i].b)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 1; k < len(cuts); k++ {
		x, y := cuts[k-1], cuts[k]
		if x == y {
			continue
		}
		best := stUnexplained
		for _, iv := range ivs {
			if iv.a <= x && iv.b >= y && iv.stage < best {
				best = iv.stage
			}
		}
		stages[best] += y - x
	}
	return stages, wall
}

// breakdown accumulates the traced run's per-job layer measurements.
type breakdown struct {
	stages     [numStages]int64
	wall       int64
	jobs       int
	queueWait  []float64 // ms
	render     []float64 // ms
	merge      []float64 // ms
	storeGet   []float64 // µs
	sweepSelf  []float64 // ms, jobs whose trace kept every span
	traceBytes []float64
	dropped    []float64
}

func (b *breakdown) add(r *jobRec, t jobTrace) {
	stages, wall := partition(r, t)
	for i, v := range stages {
		b.stages[i] += v
	}
	b.wall += wall
	b.jobs++
	for _, s := range t.spans {
		switch s.name {
		case "queue.wait":
			b.queueWait = append(b.queueWait, float64(s.dur)/1e3)
		case "render":
			b.render = append(b.render, float64(s.dur)/1e3)
		case "merge":
			b.merge = append(b.merge, float64(s.dur)/1e3)
		case "store.get":
			b.storeGet = append(b.storeGet, float64(s.dur))
		}
	}
	if t.dropped == 0 {
		b.sweepSelf = append(b.sweepSelf, float64(stages[stSweepSelf])/1e3)
	}
	b.traceBytes = append(b.traceBytes, float64(t.bytes))
	b.dropped = append(b.dropped, float64(t.dropped))
}

func (b *breakdown) metrics(m map[string]float64) {
	for i, name := range stageMetrics {
		m[name] = ratio(float64(b.stages[i]), float64(b.wall))
	}
	m["server.queue_wait_p50_ms"] = quantile(b.queueWait, 0.5)
	m["server.queue_wait_p90_ms"] = quantile(b.queueWait, 0.9)
	m["sweep.self_ms_per_job"] = mean(b.sweepSelf)
	m["sweep.render_ms_per_job"] = mean(b.render)
	m["sweep.store_get_us"] = mean(b.storeGet)
	m["telemetry.merge_ms_per_job"] = mean(b.merge)
	m["telemetry.trace_bytes_per_job"] = mean(b.traceBytes)
	m["telemetry.dropped_spans_per_job"] = mean(b.dropped)
}
