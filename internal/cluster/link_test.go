package cluster

import (
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/telemetry"
)

func TestTransferCyclesCeiling(t *testing.T) {
	const freq = 1e9
	l := &Link{GBps: 1} // 1 byte/cycle at 1 GHz

	// Zero bytes cost zero cycles.
	if got := l.transferCycles(0, freq); got != 0 {
		t.Fatalf("zero-byte transfer committed %d cycles", got)
	}

	// An exact multiple of the bytes-per-cycle must not round up.
	if got := l.transferCycles(8, freq); got != 8 {
		t.Fatalf("8-byte transfer at 1 B/cycle = %d cycles, want 8", got)
	}

	// Partial cycles round up (ceiling, not truncation).
	half := &Link{GBps: 2} // 2 bytes/cycle
	if got := half.transferCycles(7, freq); got != 4 {
		t.Fatalf("7-byte transfer at 2 B/cycle = %d cycles, want 4", got)
	}

	// Transfers serialize after committed traffic; zero-byte transfers
	// neither advance nor reset the serialization point.
	if got := l.transferCycles(0, freq); got != 8 {
		t.Fatalf("zero-byte transfer moved the busy point to %d", got)
	}
	if got := l.transferCycles(2, freq); got != 10 {
		t.Fatalf("serialized transfer ends at %d, want 10", got)
	}
}

func TestNodeSpansRecordCollectives(t *testing.T) {
	cfg := arch.NodeConfig{
		NumClusters: 2,
		Cluster:     arch.ClusterConfig{NumConvChips: 4, ArcGBps: 4, SpokeGBps: 2},
		RingGBps:    8,
		FreqHz:      600e6,
	}
	n := NewNode(cfg, 64, 32)
	tr := telemetry.NewJobTrace("node", 1<<16, nil)
	n.SetSpanSink(tr.Context(0, ""))
	for _, w := range n.Wheels {
		for _, c := range w.Chips {
			for i := range c.Grad {
				c.Grad[i] = 1
			}
		}
	}
	total := n.MinibatchBoundary(0.1)
	if total <= 0 {
		t.Fatalf("boundary cycles = %d", total)
	}

	spans := tr.Assemble()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	names := map[string]bool{}
	tracks := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		tracks[s.Track] = true
		if s.Start < 0 || s.Dur <= 0 {
			t.Fatalf("degenerate span: %+v", s)
		}
	}
	for _, want := range []string{"grad", "weights", "ring-chunk", "ring-all-reduce", "weight-distribute", "grad-accumulate.wheel0"} {
		if !names[want] {
			t.Errorf("missing %q span (have %v)", want, names)
		}
	}
	if !tracks["wheel0.arc1"] || !tracks["ring0"] || !tracks["node"] {
		t.Errorf("missing link tracks: %v", tracks)
	}
}
