package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload driver for a short window over the
// first few jobs of its list against its in-process daemon, untraced and
// traced, and checks that each run is correct and emits exactly the
// declared metrics.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				seed: 3, window: 300 * time.Millisecond, traced: traced,
				traceOut:  filepath.Join(t.TempDir(), "trace.json"),
				setupReps: 1, warmups: 2, checkCells: 2, probeCells: 2, maxJobs: 6,
			}
			rep, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := rep.Metrics[d.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				}
			}
			if traced {
				data, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var events []map[string]any
				if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
					t.Errorf("%s: harness trace is not a Chrome trace-event array: %v", w.name, err)
				}
			}
		}
	}
}
