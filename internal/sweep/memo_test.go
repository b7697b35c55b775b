package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
)

// memoGrid is a grid with deliberate duplicate cells: the workload axis
// repeats simnet and the minibatch axis repeats 1, so its 9 jobs hold 4
// distinct cells and 5 repeats, which a store answers without simulating.
func memoGrid() Grid {
	return Grid{
		Workloads:   []string{"simnet", "fcnet", "simnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1, 2, 1},
		Modes:       []string{"eval"},
	}
}

// freshStore opens an empty result store that the test closes when done.
func freshStore(t *testing.T) *store.Store {
	t.Helper()
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	return st
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

// directResults is the reference RunGrid is checked against: every job of
// g simulated on its own with runJob, in job order, its registry merged
// into reg (when non-nil) the way RunGrid merges.
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
// every job on its own, at any worker count, whether every repeat
// simulates again (no store) or a fresh store answers it.
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
	for _, stored := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			widenBudget(t, workers)
			opts := Options{Workers: workers, Metrics: telemetry.NewRegistry()}
			if stored {
				opts.Store = freshStore(t)
			}
			results, err := RunGrid(context.Background(), memoGrid(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if tables := renderAll(t, results); !bytes.Equal(tables, wantTables) {
				t.Errorf("tables diverge at workers=%d store=%v:\n%s\nwant:\n%s", workers, stored, tables, wantTables)
			}
			if metrics := snapshot(opts.Metrics); !bytes.Equal(metrics, wantMetrics) {
				t.Errorf("metrics snapshot diverges at workers=%d store=%v:\n%s\nwant:\n%s", workers, stored, metrics, wantMetrics)
			}
		}
	}
}

// TestGridMemoActuallyMemoizes pins that a fresh store simulates each
// distinct cell of a repeated grid once: 4 puts for memoGrid's 4 cells, and
// each of its 5 repeats answered by the memory tier or by single-flight.
// Progress still reports every job exactly once, 1 through 9 in order.
func TestGridMemoActuallyMemoizes(t *testing.T) {
	jobs, _ := memoGrid().Jobs()
	for _, workers := range []int{1, 4} {
		widenBudget(t, workers)
		st := freshStore(t)
		var dones []int
		_, err := RunGrid(context.Background(), memoGrid(), Options{
			Workers:  workers,
			Store:    st,
			Progress: func(done, total int) { dones = append(dones, done) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats := st.Stats(); stats.Puts != 4 || stats.MemHits+stats.Coalesced != 5 {
			t.Errorf("workers=%d: store stats %+v, want 4 puts and 5 memory hits or coalesced repeats", workers, stats)
		}
		if len(dones) != len(jobs) {
			t.Fatalf("workers=%d: progress %v, want one call per job (%d)", workers, dones, len(jobs))
		}
		for i, done := range dones {
			if done != i+1 {
				t.Fatalf("workers=%d: progress %v, want 1..%d in order", workers, dones, len(jobs))
			}
		}
	}
}

// checkReplicasMatchDirect checks the store's dedup on g, which must list
// every cell exactly twice: run under opts (on a fresh store unless opts
// carries one), every row must equal a direct simulation of its own job,
// so an unsound store key fails here, and the store must hold one put per
// distinct cell.
func checkReplicasMatchDirect(t *testing.T, g Grid, opts Options) {
	t.Helper()
	widenBudget(t, opts.Workers)
	if opts.Store == nil {
		opts.Store = freshStore(t)
	}
	results, err := RunGrid(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := g.Jobs()
	for i, job := range jobs {
		fresh, err := runJob(job, nil, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != fresh {
			t.Errorf("%s: row %+v != direct simulation %+v", job.Name(), results[i], fresh)
		}
	}
	if puts := opts.Store.Stats().Puts; puts != int64(len(jobs)/2) {
		t.Errorf("%d puts for %d jobs, want one per distinct cell (%d)", puts, len(jobs), len(jobs)/2)
	}
}

// TestGridVerifyMemoZoo verifies the store's dedup over the whole
// catalogue: every workload listed twice × both archs × minibatch 1, 2 ×
// eval and train, each row compared with a direct simulation of its job.
func TestGridVerifyMemoZoo(t *testing.T) {
	checkReplicasMatchDirect(t, Grid{
		Workloads:   append(Workloads(), Workloads()...), // every workload, twice
		Archs:       Archs(),
		Minibatches: []int{1, 2},
		Modes:       []string{"eval", "train"},
	}, Options{Workers: 4})
}

// TestGridEvalItersNormalized: eval cells ignore Iterations, so their store
// key normalizes it out. A store filled from the eval cell at Iterations 1
// must answer the same grid's eval rows at Iterations 2 as hits, and every
// row of the mixed eval/train grid must still equal a direct simulation.
func TestGridEvalItersNormalized(t *testing.T) {
	st := freshStore(t)
	fill := Grid{Workloads: []string{"fcnet"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"eval"}, Iterations: 1}
	if _, err := RunGrid(context.Background(), fill, Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	jt := telemetry.NewJobTrace("sweep", 0, fixedClock())
	checkReplicasMatchDirect(t, Grid{
		Workloads:   []string{"fcnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1, 1},
		Modes:       []string{"eval", "train"},
		Iterations:  2,
	}, Options{Workers: 2, Store: st, Trace: jt})
	evalGets := 0
	for _, s := range jt.Assemble() {
		if s.Name == "store.get" && strings.HasSuffix(s.Track, "/eval") {
			evalGets++
			if out := attr(s, "outcome"); out != "hit" {
				t.Errorf("%s: store.get %s at Iterations 2, want a hit on the Iterations 1 blob", s.Track, out)
			}
		}
	}
	if evalGets != 2 {
		t.Errorf("%d eval store lookups, want 2", evalGets)
	}
}
