package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"scaledeep/internal/telemetry"
)

// memoGrid is a grid with deliberate duplicate cells: the workload axis
// repeats simnet and the minibatch axis repeats 1, so several jobs share a
// semantic cell and the memoized path must replicate results.
func memoGrid() Grid {
	return Grid{
		Workloads:   []string{"simnet", "fcnet", "simnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1, 2, 1},
		Modes:       []string{"eval"},
	}
}

// renderAll renders results in every output format into one byte stream.
func renderAll(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(FormatText(results))
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directResults is the reference the class memo is checked against: every
// job of g simulated on its own with runJob, in job order, its registry
// merged into reg (when non-nil) the way RunGrid merges.
func directResults(g Grid, reg *telemetry.Registry) ([]Result, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(jobs))
	for i, job := range jobs {
		var jobReg *telemetry.Registry
		if reg != nil {
			jobReg = telemetry.NewRegistry()
		}
		if results[i], err = runJob(job, jobReg, telemetry.TraceContext{}); err != nil {
			return nil, err
		}
		if reg != nil {
			if err := reg.MergeFrom(jobReg); err != nil {
				return nil, err
			}
			recordJobMetrics(reg, results[i])
		}
	}
	return results, nil
}

// TestGridMemoByteIdenticalOutput is the sweep-level exactness guarantee:
// for a grid with duplicate cells, the rendered tables (text, CSV and JSON)
// and the merged metrics snapshot must be byte-identical to simulating
// every job on its own, at any worker count.
func TestGridMemoByteIdenticalOutput(t *testing.T) {
	snapshot := func(reg *telemetry.Registry) []byte {
		snap, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	refReg := telemetry.NewRegistry()
	ref, err := directResults(memoGrid(), refReg)
	if err != nil {
		t.Fatal(err)
	}
	wantTables, wantMetrics := renderAll(t, ref), snapshot(refReg)
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		results, err := RunGrid(context.Background(), memoGrid(), Options{Workers: workers, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if tables := renderAll(t, results); !bytes.Equal(tables, wantTables) {
			t.Errorf("tables diverge at workers=%d:\n%s\nwant:\n%s", workers, tables, wantTables)
		}
		if metrics := snapshot(reg); !bytes.Equal(metrics, wantMetrics) {
			t.Errorf("metrics snapshot diverges at workers=%d:\n%s\nwant:\n%s", workers, metrics, wantMetrics)
		}
	}
}

// TestGridMemoActuallyMemoizes pins that the memoized path simulates fewer
// jobs than the grid holds, using the progress callback as the observable:
// expanded progress must still report every job exactly once.
func TestGridMemoActuallyMemoizes(t *testing.T) {
	var dones []int
	_, err := RunGrid(context.Background(), memoGrid(), Options{
		Workers:  1,
		Progress: func(done, total int) { dones = append(dones, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := memoGrid().Jobs()
	if len(dones) == 0 || dones[len(dones)-1] != len(jobs) {
		t.Fatalf("progress reached %v, want final %d", dones, len(jobs))
	}
	// 3 workloads × 3 minibatches with duplicates collapse 9 jobs into 4
	// classes, so progress fires once per class.
	if len(dones) >= len(jobs) {
		t.Fatalf("memo path reported %d progress steps for %d jobs — did every job run?", len(dones), len(jobs))
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] <= dones[i-1] {
			t.Fatalf("progress not strictly increasing: %v", dones)
		}
	}
}

// checkReplicasMatchDirect checks the class memo's key on g: every
// replicated row — each class member after the first — must equal a direct
// simulation of its own job, so an unsound cell key fails here. g must list
// every cell exactly twice, so half its rows are replicas.
func checkReplicasMatchDirect(t *testing.T, g Grid, workers int) {
	t.Helper()
	results, err := RunGrid(context.Background(), g, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := g.Jobs()
	replicas := 0
	for _, members := range cellClasses(jobs) {
		for _, ji := range members[1:] {
			replicas++
			fresh, err := runJob(jobs[ji], nil, telemetry.TraceContext{})
			if err != nil {
				t.Fatal(err)
			}
			if results[ji] != fresh {
				t.Errorf("%s: replicated row %+v != direct simulation %+v", fresh.Name(), results[ji], fresh)
			}
		}
	}
	if replicas != len(jobs)/2 {
		t.Fatalf("%d replicated rows in %d jobs, want half", replicas, len(jobs))
	}
}

// TestGridVerifyMemoZoo verifies the class memo over the whole catalogue:
// every workload listed twice × both archs × minibatch 1, 2 × eval and
// train, each replicated row compared with a direct simulation of its job.
func TestGridVerifyMemoZoo(t *testing.T) {
	checkReplicasMatchDirect(t, Grid{
		Workloads:   append(Workloads(), Workloads()...), // every workload, twice
		Archs:       Archs(),
		Minibatches: []int{1, 2},
		Modes:       []string{"eval", "train"},
	}, 4)
}

// TestGridEvalItersNormalized: eval cells ignore Iterations, so their key
// normalizes it out — and a mixed eval/train grid at Iterations 2 must
// still replicate only rows equal to a direct simulation.
func TestGridEvalItersNormalized(t *testing.T) {
	checkReplicasMatchDirect(t, Grid{
		Workloads:   []string{"fcnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1, 1},
		Modes:       []string{"eval", "train"},
		Iterations:  2,
	}, 2)
}
