package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"scaledeep/internal/telemetry"
)

func testGrid() Grid {
	return Grid{
		Workloads:   []string{"simnet", "trainnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1, 2},
		Modes:       []string{"eval", "train"},
	}
}

func TestGridJobsEnumeration(t *testing.T) {
	g := testGrid()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("got %d jobs, want 8", len(jobs))
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has index %d", i, j.Index)
		}
		if j.Iters != 1 {
			t.Fatalf("job %s iters = %d, want default 1", j.Name(), j.Iters)
		}
	}
	// Workload-major enumeration: all simnet rows precede all trainnet rows.
	if jobs[0].Workload != "simnet" || jobs[7].Workload != "trainnet" {
		t.Fatalf("unexpected enumeration order: %s .. %s", jobs[0].Name(), jobs[7].Name())
	}
	if jobs[0].Name() != "simnet/baseline/mb1/eval" {
		t.Fatalf("job 0 = %s", jobs[0].Name())
	}
}

func TestGridValidation(t *testing.T) {
	cases := []Grid{
		{},
		{Workloads: []string{"nope"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"eval"}},
		{Workloads: []string{"simnet"}, Archs: []string{"nope"}, Minibatches: []int{1}, Modes: []string{"eval"}},
		{Workloads: []string{"simnet"}, Archs: []string{"baseline"}, Minibatches: []int{0}, Modes: []string{"eval"}},
		{Workloads: []string{"simnet"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"predict"}},
	}
	for i, g := range cases {
		if _, err := g.Jobs(); err == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
}

func TestWorkloadCatalogBuilds(t *testing.T) {
	for _, name := range Workloads() {
		net, err := buildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range Archs() {
		if _, _, err := chipFor(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunGridByteIdenticalAcrossParallelism is the determinism acceptance
// check: the same grid must produce byte-identical CSV, JSON and merged
// metrics snapshots on one worker and on eight.
func TestRunGridByteIdenticalAcrossParallelism(t *testing.T) {
	g := testGrid()
	render := func(workers int) (csv, js, metrics string) {
		widenBudget(t, workers)
		merged := telemetry.NewRegistry()
		results, err := RunGrid(context.Background(), g, Options{Workers: workers, Metrics: merged})
		if err != nil {
			t.Fatal(err)
		}
		var cb, jb, mb bytes.Buffer
		if err := WriteCSV(&cb, results); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&jb, results); err != nil {
			t.Fatal(err)
		}
		if err := merged.WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		return cb.String(), jb.String(), mb.String()
	}
	csv1, js1, m1 := render(1)
	csv8, js8, m8 := render(8)
	if csv1 != csv8 {
		t.Fatalf("CSV differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", csv1, csv8)
	}
	if js1 != js8 {
		t.Fatal("JSON differs between -parallel 1 and -parallel 8")
	}
	if m1 != m8 {
		t.Fatalf("merged metrics differ between -parallel 1 and -parallel 8:\n%s\nvs\n%s", m1, m8)
	}
	if !strings.HasPrefix(csv1, "workload,arch,minibatch,mode,iters,cycles,") {
		t.Fatalf("unexpected CSV header:\n%s", csv1)
	}
	if lines := strings.Count(csv1, "\n"); lines != 9 { // header + 8 rows
		t.Fatalf("CSV has %d lines, want 9", lines)
	}
}

func TestRunGridMetricsAndProgress(t *testing.T) {
	g := Grid{Workloads: []string{"simnet"}, Archs: []string{"baseline"},
		Minibatches: []int{1, 2}, Modes: []string{"eval"}}
	merged := telemetry.NewRegistry()
	var last, total int
	results, err := RunGrid(context.Background(), g, Options{
		Workers: 2, Metrics: merged,
		Progress: func(d, n int) { last, total = d, n },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || last != 2 || total != 2 {
		t.Fatalf("results=%d progress=%d/%d", len(results), last, total)
	}
	if got := merged.Counter("sweep.jobs").Value(); got != 2 {
		t.Fatalf("sweep.jobs = %d, want 2", got)
	}
	for _, r := range results {
		if r.Cycles <= 0 || r.Instructions <= 0 {
			t.Fatalf("%s: empty result %+v", r.Name(), r)
		}
		lbl := telemetry.Label{Key: "job", Value: r.Name()}
		if got := merged.Counter("sweep.job.cycles", lbl).Value(); got != r.Cycles {
			t.Fatalf("%s: merged per-job cycles %d != result %d", r.Name(), got, r.Cycles)
		}
	}
	// The merged unlabeled sim series aggregate across jobs.
	var instr int64
	for _, r := range results {
		instr += r.Instructions
	}
	if got := merged.Counter("sim.instructions").Value(); got != instr {
		t.Fatalf("merged sim.instructions = %d, want %d", got, instr)
	}
}

// TestRunGridTrainMatchesReference cross-checks one training grid point
// against sdtrain's property: identical eval checksum across archs is not
// expected, but the same job spec must reproduce its own checksum exactly.
func TestRunGridResultsReproducible(t *testing.T) {
	g := Grid{Workloads: []string{"simnet"}, Archs: []string{"baseline"},
		Minibatches: []int{2}, Modes: []string{"train"}, Iterations: 2}
	r1, err := RunGrid(context.Background(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunGrid(context.Background(), g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r2[0] {
		t.Fatalf("re-run differs: %+v vs %+v", r1[0], r2[0])
	}
	if r1[0].Iters != 2 {
		t.Fatalf("iterations not threaded through: %+v", r1[0])
	}
}
