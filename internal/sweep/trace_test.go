package sweep

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
)

// traceGrid is a small grid with a duplicate axis value, so the memo path
// has both a multi-member class and distinct cells.
func traceGrid() Grid {
	return Grid{
		Workloads:   []string{"simnet"},
		Archs:       []string{"baseline", "baseline"},
		Minibatches: []int{1, 2},
		Modes:       []string{"eval"},
	}
}

// fixedClock freezes wall time so assembled traces depend only on the spec.
func fixedClock() func() time.Time {
	at := time.Unix(1_700_000_000, 0)
	return func() time.Time { return at }
}

func spansByName(spans []telemetry.Span) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		out[s.Name]++
	}
	return out
}

func TestRunGridTraceRecordsCellSpans(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	jt := telemetry.NewJobTrace("sweep", 0, fixedClock())
	if _, err := RunGrid(context.Background(), traceGrid(), Options{Store: st, Trace: jt}); err != nil {
		t.Fatal(err)
	}
	spans := jt.Assemble()
	byName := spansByName(spans)
	// Two distinct cells (mb1, mb2): each misses the store, simulates, and
	// writes back.
	if byName["store.get"] != 2 || byName["simulate"] != 2 || byName["store.put"] != 2 {
		t.Fatalf("first-run span counts = %v, want 2× store.get/simulate/store.put", byName)
	}
	var hit, miss int
	for _, s := range spans {
		if s.Name != "store.get" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "outcome" {
				switch a.Value {
				case "hit":
					hit++
				case "miss":
					miss++
				}
			}
		}
	}
	if miss != 2 || hit != 0 {
		t.Errorf("first run store.get outcomes: %d miss %d hit, want 2/0", miss, hit)
	}
	// Simulator spans land on prefixed per-tile tracks inside the cell lane.
	simTracks := 0
	for _, s := range spans {
		if len(s.Track) > 5 && s.Track[:5] == "cell/" && bytes.Contains([]byte(s.Track), []byte("comp[")) {
			simTracks++
		}
	}
	if simTracks == 0 {
		t.Error("no simulator op spans reached the cell lanes")
	}

	// Second run over the same store: every cell is a hit, nothing simulates.
	jt2 := telemetry.NewJobTrace("sweep", 0, fixedClock())
	if _, err := RunGrid(context.Background(), traceGrid(), Options{Store: st, Trace: jt2}); err != nil {
		t.Fatal(err)
	}
	byName2 := spansByName(jt2.Assemble())
	if byName2["store.get"] != 2 || byName2["simulate"] != 0 || byName2["store.put"] != 0 {
		t.Errorf("second-run span counts = %v, want 2× store.get only", byName2)
	}
}

func TestRunGridTraceDeterministicAcrossWorkers(t *testing.T) {
	assemble := func(workers int) []byte {
		widenBudget(t, workers)
		jt := telemetry.NewJobTrace("sweep", 0, fixedClock())
		if _, err := RunGrid(context.Background(), traceGrid(), Options{Workers: workers, Trace: jt}); err != nil {
			t.Fatal(err)
		}
		data, err := telemetry.MarshalChromeTraceMeta(jt.Assemble(), telemetry.TraceMeta{Process: "sweep"})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := assemble(1)
	for _, workers := range []int{2, 4} {
		if got := assemble(workers); !bytes.Equal(got, one) {
			t.Errorf("assembled trace at %d workers differs from serial (%d vs %d bytes)",
				workers, len(got), len(one))
		}
	}
}

// TestSimulatorSpanBudgetMatchesFullLane runs one cell whose op spans
// overflow its lane and one whose spans fit, each into a lane with the
// default bound and into one with room for every span. The bounded lane
// must hold the unbounded lane's leading spans, then the lifecycle span
// that ends the cell, and count the op spans past its room as dropped.
func TestSimulatorSpanBudgetMatchesFullLane(t *testing.T) {
	for _, c := range []struct {
		job       Job
		kept, ops int // op spans the bounded lane keeps, and the cell's total
	}{
		{Job{Workload: "minivgg", Arch: "half", Minibatch: 8, Mode: "train", Iters: 1}, 4095, 17385},
		{Job{Workload: "simnet", Arch: "baseline", Minibatch: 1, Mode: "eval", Iters: 1}, 669, 669},
	} {
		run := func(perLane int) *telemetry.JobTrace {
			jt := telemetry.NewJobTrace("job", perLane, fixedClock())
			lane := jt.Context(0, "cell/"+c.job.Name())
			lane.Begin("store.get")() // a lifecycle span already in the lane
			end := lane.Begin("simulate")
			_, err := runJob(c.job, nil, lane)
			end(outcomeOf(err))
			if err != nil {
				t.Fatalf("%s: %v", c.job.Name(), err)
			}
			return jt
		}
		full, bounded := run(math.MaxInt), run(0)
		fs, bs := full.Assemble(), bounded.Assemble()
		name := c.job.Name()
		if got := len(fs) - 2; got != c.ops || full.Dropped() != 0 {
			t.Errorf("%s: unbounded lane holds %d op spans and dropped %d, want %d and 0", name, got, full.Dropped(), c.ops)
		}
		if got := len(bs) - 2; got != c.kept {
			t.Errorf("%s: bounded lane holds %d op spans, want %d", name, got, c.kept)
		}
		if got, want := bounded.Dropped(), int64(c.ops-c.kept); got != want {
			t.Errorf("%s: bounded lane dropped %d spans, want %d", name, got, want)
		}
		if n := len(bs) - 1; n > len(fs) || !reflect.DeepEqual(bs[:n], fs[:n]) {
			t.Errorf("%s: the bounded lane's spans are not the unbounded lane's leading spans", name)
		} else if last := bs[n]; last.Name != "simulate" || !reflect.DeepEqual(last, fs[len(fs)-1]) {
			t.Errorf("%s: bounded lane ends with %+v, want the cell's simulate span", name, last)
		}
		t.Logf("%s: kept %d of %d op spans, dropped %d", name, len(bs)-2, len(fs)-2, bounded.Dropped())
	}
}
