package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// metricDef declares one reported metric. BENCHMARK.json at the root of the
// repository lists exactly these, with the same units, directions and (end
// to end) bounds; TestBenchmarkJSONAgrees keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of sdserve sees, measured by an untraced run and
// scaled to the reference machine's speed (speed.go). Bound is the share of
// the parent commit's median by which a metric may worsen before a change
// counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
}

// perLayer is measured by a separate traced run and is diagnostic: no
// bound. Every workload reports every metric; a layer the workload bypasses
// reads zero in its shares and counts.
var perLayer = []metricDef{
	// server: HTTP admission and result delivery, and queue wait from the
	// job traces.
	{"server.submit_p50_ms", "ms", "lower", 0},
	{"server.result_fetch_p50_ms", "ms", "lower", 0},
	{"server.queue_wait_p50_ms", "ms", "lower", 0},
	{"server.queue_wait_p90_ms", "ms", "lower", 0},
	{"server.refused", "count", "lower", 0},
	{"server.start_ms", "ms", "lower", 0},
	{"server.submit_share", "share", "lower", 0},
	{"server.queue_wait_share", "share", "lower", 0},
	{"server.fetch_share", "share", "lower", 0},
	// sweep: the engine's lifecycle spans in the job traces.
	{"sweep.self_ms_per_job", "ms", "lower", 0},
	{"sweep.render_ms_per_job", "ms", "lower", 0},
	{"sweep.store_get_us", "us", "lower", 0},
	{"sweep.self_share", "share", "lower", 0},
	{"sweep.store_get_share", "share", "lower", 0},
	{"sweep.predict_share", "share", "lower", 0},
	{"sweep.flight_wait_share", "share", "lower", 0},
	{"sweep.simulate_share", "share", "lower", 0},
	{"sweep.store_put_share", "share", "lower", 0},
	{"sweep.render_share", "share", "lower", 0},
	{"sweep.overflow_share", "share", "lower", 0},
	// telemetry: the per-job registry merge and the job trace itself.
	{"telemetry.merge_ms_per_job", "ms", "lower", 0},
	{"telemetry.merge_share", "share", "lower", 0},
	{"telemetry.trace_bytes_per_job", "B", "lower", 0},
	{"telemetry.dropped_spans_per_job", "count", "lower", 0},
	// store: GET /store over the window, and public calls after it.
	{"store.mem_hits", "count", "higher", 0},
	{"store.disk_hits", "count", "higher", 0},
	{"store.misses", "count", "lower", 0},
	{"store.puts", "count", "lower", 0},
	{"store.coalesced", "count", "higher", 0},
	{"store.hit_ratio", "share", "higher", 0},
	{"store.blobs", "count", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.get_disk_us", "us", "lower", 0},
	{"store.get_mem_us", "us", "lower", 0},
	{"store.put_first_us", "us", "lower", 0},
	{"store.put_last_us", "us", "lower", 0},
	// predict: the learned fast path.
	{"predict.hit_share", "share", "higher", 0},
	{"predict.cell_us", "us", "lower", 0},
	{"predict.fit_s", "s", "lower", 0},
	// compiler: Compile with a phase-span sink, over the probe sample.
	{"compiler.compile_p50_ms", "ms", "lower", 0},
	{"compiler.compile_p90_ms", "ms", "lower", 0},
	{"compiler.map_ms", "ms", "lower", 0},
	{"compiler.bind_ms", "ms", "lower", 0},
	{"compiler.emit_ms", "ms", "lower", 0},
	{"compiler.finalize_ms", "ms", "lower", 0},
	{"compiler.instructions", "count", "lower", 0},
	// sim: sweep.runJob's calls replayed over the probe sample.
	{"sim.new_machine_ms", "ms", "lower", 0},
	{"sim.reset_ms", "ms", "lower", 0},
	{"sim.install_ms", "ms", "lower", 0},
	{"sim.load_ms", "ms", "lower", 0},
	{"sim.run_fresh_ms", "ms", "lower", 0},
	{"sim.run_reused_ms", "ms", "lower", 0},
	{"sim.ns_per_instr", "ns", "lower", 0},
	{"sim.cycles_total", "count", "lower", 0},
	{"sim.instructions_total", "count", "lower", 0},
	// bench: the generator's own view and validity checks.
	{"bench.jobs", "count", "higher", 0},
	{"bench.traced_job_p50_ms", "ms", "lower", 0},
	{"bench.probe_us", "us", "lower", 0},
	{"bench.job_p95_ms", "ms", "lower", 0},
	{"bench.job_p99_ms", "ms", "lower", 0},
	{"bench.tail_pct", "%", "higher", 0},
	{"bench.tail_ms", "ms", "lower", 0},
	{"bench.gen_late_p95_ms", "ms", "lower", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
	{"bench.poll_share", "share", "lower", 0},
	{"bench.unexplained_share", "share", "lower", 0},
}

// exactCounts are the per-layer values that repeat exactly on every run of
// a workload at this commit; a traced run fails its output check when one
// differs. The compiler and sim counts are sums over the fixed probe
// sample; predict.hit_share is the share of the workload's cells answered
// predicted.
var exactCounts = map[string]map[string]float64{
	"cold-sweep": {
		"compiler.instructions": 1025490, "sim.cycles_total": 207988,
		"sim.instructions_total": 1105613, "predict.hit_share": 0,
	},
	"warm-zoo": {
		"compiler.instructions": 214118, "sim.cycles_total": 57196,
		"sim.instructions_total": 254170, "predict.hit_share": 0,
	},
	"dup-storm": {
		"compiler.instructions": 425733, "sim.cycles_total": 94654,
		"sim.instructions_total": 482490, "predict.hit_share": 0,
	},
	"predict-sweep": {
		"compiler.instructions": 558004, "sim.cycles_total": 203290,
		"sim.instructions_total": 1014371, "predict.hit_share": 190.0 / 288,
	},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result: the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	defs      []metricDef
}

// newReport attaches units to exactly the declared metrics; a declared
// metric without a value, or a value nobody declared, is a harness bug.
func newReport(defs []metricDef, values map[string]float64) (*report, error) {
	r := &report{Metrics: map[string]metricValue{}, defs: defs}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return r, nil
}

// print writes one "name value unit" line per metric in declaration order,
// then the JSON document as the last line.
func (r *report) print(w io.Writer) error {
	for _, d := range r.defs {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "%s %s %s\n", d.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	doc, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", doc)
	return err
}
