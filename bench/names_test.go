package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the harness from
// drifting apart: the same workloads with the same reasons, the same
// metrics with the same units, directions and bounds, and the harness's
// default window equal to run_seconds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n harness        %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n harness        %+v", b.PerLayer, perLayer)
	}
	if got := time.Duration(b.RunSeconds) * time.Second; got != defaultConfig().window {
		t.Errorf("run_seconds %v, harness default window %v", got, defaultConfig().window)
	}
	for wl, counts := range exactCounts {
		if _, err := lookup(wl); err != nil {
			t.Error(err)
		}
		for name := range counts {
			if !declared(perLayer, name) {
				t.Errorf("exact count %s of %s is not a per-layer metric", name, wl)
			}
		}
	}
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
