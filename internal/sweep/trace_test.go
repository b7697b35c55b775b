package sweep

import (
	"bytes"
	"context"
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

// batchOnlySink hides a lane's SpanBudgetSink methods, so the simulator
// builds every span and the lane's own bound drops the overflow.
type batchOnlySink struct{ lane telemetry.TraceContext }

func (b batchOnlySink) RecordSpan(s telemetry.Span)        { b.lane.RecordSpan(s) }
func (b batchOnlySink) RecordSpans(spans []telemetry.Span) { b.lane.RecordSpans(spans) }

// countingSink is a lane that counts the spans it is handed.
type countingSink struct {
	telemetry.TraceContext
	handed *int
}

func (c countingSink) RecordSpan(s telemetry.Span) {
	*c.handed++
	c.TraceContext.RecordSpan(s)
}

func (c countingSink) RecordSpans(spans []telemetry.Span) {
	*c.handed += len(spans)
	c.TraceContext.RecordSpans(spans)
}

// TestSimulatorSpanBudgetMatchesFullLane runs one cell whose op spans
// overflow its lane and one whose spans fit, each into a lane the machine
// can ask for room and into one it cannot. The assembled traces and drop
// counts must be equal, and the budgeted machine must hand the lane no more
// spans than it had room for.
func TestSimulatorSpanBudgetMatchesFullLane(t *testing.T) {
	for _, c := range []struct {
		job      Job
		overflow bool
	}{
		{Job{Workload: "minivgg", Arch: "half", Minibatch: 8, Mode: "train", Iters: 1}, true},
		{Job{Workload: "simnet", Arch: "baseline", Minibatch: 1, Mode: "eval", Iters: 1}, false},
	} {
		run := func(sink func(telemetry.TraceContext) telemetry.SpanSink) *telemetry.JobTrace {
			jt := telemetry.NewJobTrace("job", 0, fixedClock())
			lane := jt.Context(0, "cell/"+c.job.Name())
			lane.Begin("store.get")() // a lifecycle span already in the lane
			end := lane.Begin("simulate")
			_, err := runJob(c.job, nil, sink(lane))
			end(outcomeOf(err))
			if err != nil {
				t.Fatalf("%s: %v", c.job.Name(), err)
			}
			return jt
		}
		full := run(func(lane telemetry.TraceContext) telemetry.SpanSink { return batchOnlySink{lane} })
		var room, handed int
		budgeted := run(func(lane telemetry.TraceContext) telemetry.SpanSink {
			room = lane.SpanRoom()
			return countingSink{lane, &handed}
		})
		name := c.job.Name()
		if got, want := budgeted.Dropped(), full.Dropped(); got != want {
			t.Errorf("%s: budgeted run dropped %d spans, full lane %d", name, got, want)
		}
		if got, want := budgeted.Assemble(), full.Assemble(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: budgeted trace has %d spans, full lane %d, or they differ", name, len(got), len(want))
		}
		if handed > room {
			t.Errorf("%s: machine handed the lane %d spans with room for %d", name, handed, room)
		}
		if dropped := full.Dropped(); (dropped > 0) != c.overflow {
			t.Errorf("%s: lane dropped %d spans, overflow expected: %v", name, dropped, c.overflow)
		}
		t.Logf("%s: room %d, handed %d, dropped %d", name, room, handed, budgeted.Dropped())
	}
}
