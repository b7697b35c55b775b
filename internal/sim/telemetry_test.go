package sim

import (
	"encoding/json"
	"io"
	"log/slog"
	"testing"
	"time"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
	"scaledeep/internal/telemetry"
)

// producerConsumer loads the tracker-synchronized pair from the trace tests:
// a delayed producer DMA and a consumer that stalls on the tracker.
func producerConsumer(t *testing.T, m *Machine) {
	t.Helper()
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 2, NumUpdates: 1, NumReads: 1}})
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{5, 6})
	delay := []isa.Instr{isa.Ldri(1, 100), isa.Subri(1, 1, 1), isa.Bgtz(1, -2)}
	producer := prog("p", delay, opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 0))
	consumer := prog("c", opInstr(isa.DMASTORE, 0, isa.PortLeft, 300, isa.PortExt, 2, 0))
	if err := m.LoadProgram(0, 0, StepFP, producer); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(0, 1, StepFP, consumer); err != nil {
		t.Fatal(err)
	}
}

func TestSpanSinkRecordsOpsAndStalls(t *testing.T) {
	m := newTestMachine()
	jt := traceInto(m, 0)
	producerConsumer(t, m)
	mustRun(t, m)

	spans := jt.Assemble()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	tracks := map[string]bool{}
	var sawOp, sawStall bool
	for _, s := range spans {
		tracks[s.Track] = true
		if s.Start < 0 || s.Dur < 0 {
			t.Fatalf("negative span: %+v", s)
		}
		switch s.Name {
		case "DMASTORE":
			sawOp = true
		case "STALL":
			sawStall = true
			if s.Dur != 0 || len(s.Attrs) == 0 {
				t.Fatalf("stall span: %+v", s)
			}
		}
	}
	if !sawOp || !sawStall {
		t.Fatalf("missing spans (op=%v stall=%v): %+v", sawOp, sawStall, spans)
	}
	if !tracks["comp[r0,c0,FP]"] || !tracks["comp[r0,c1,FP]"] {
		t.Fatalf("missing per-tile tracks: %v", tracks)
	}

	// The exported Chrome trace must be valid JSON with sane events.
	data, err := telemetry.MarshalChromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	var events []telemetry.ChromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(events) < len(spans) {
		t.Fatalf("chrome trace too short: %d events for %d spans", len(events), len(spans))
	}
}

func TestMetricsMatchStats(t *testing.T) {
	m := newTestMachine()
	reg := telemetry.NewRegistry()
	m.SetMetrics(reg)
	producerConsumer(t, m)
	st := mustRun(t, m)

	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		key := c.Name
		if l, ok := c.Labels["link"]; ok {
			key += "/" + l
		}
		counters[key] = c.Value
	}
	checks := map[string]int64{
		"sim.nacks":               st.NACKs,
		"sim.flops":               st.FLOPs,
		"sim.instructions":        st.Instructions,
		"sim.link.bytes/comp-mem": st.CompMemBytes,
		"sim.link.bytes/mem-mem":  st.MemMemBytes,
		"sim.link.bytes/ext":      st.ExtMemBytes,
	}
	for name, want := range checks {
		if counters[name] != want {
			t.Errorf("%s = %d, stats say %d", name, counters[name], want)
		}
	}
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["sim.cycles"] != float64(st.Cycles) {
		t.Errorf("sim.cycles gauge = %v, stats say %d", gauges["sim.cycles"], st.Cycles)
	}
	if len(snap.Histograms) == 0 || snap.Histograms[0].Count == 0 {
		t.Error("op-cycle histogram recorded nothing")
	}
}

func TestStatsRegistryStandalone(t *testing.T) {
	st := Stats{Cycles: 100, FLOPs: 42, NACKs: 3, CompMemBytes: 64}
	snap := StatsRegistry(st).Snapshot()
	var flops int64
	for _, c := range snap.Counters {
		if c.Name == "sim.flops" {
			flops = c.Value
		}
	}
	if flops != 42 {
		t.Fatalf("sim.flops = %d", flops)
	}
}

// benchMachine builds a machine running a DMA+scalar loop workload. The
// workload is long enough (256 coarse ops) that per-run fixed costs
// amortize the way they do in real cell simulations, so the On/Off ratio
// reflects per-op telemetry cost.
func benchMachine(b *testing.B) *Machine {
	b.Helper()
	m := NewMachine(testChip(), arch.Single, false)
	var groups [][]isa.Instr
	for i := 0; i < 256; i++ {
		groups = append(groups, opInstr(isa.DMASTORE, 0, isa.PortLeft, int64(100+i), isa.PortExt, 8, 0))
	}
	if err := m.LoadProgram(0, 0, StepFP, prog("b", groups...)); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkRunTelemetryOff measures one full cell lifecycle — machine
// build, program load, run — with the nil-sink fast path, exactly what a
// sweep cell costs with observability off (compare with ...TelemetryOn).
// Setup is timed in both benchmarks: per-iteration StopTimer/StartTimer
// would let setup's GC debt land stochastically inside the timed regions
// and swamp the On/Off comparison.
func BenchmarkRunTelemetryOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := benchMachine(b)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTelemetryOn measures the same cell lifecycle with the full
// observability stack attached: a job-trace lane as the span sink, a
// metrics registry, and one structured JSON log line per run — the exact
// per-cell path a service job takes. The registry and logger are shared
// across iterations (as the service shares them across a job's cells).
// `make bench` gates the On/Off ns/op ratio via sdbenchdiff -ratio.
func BenchmarkRunTelemetryOn(b *testing.B) {
	b.ReportAllocs()
	logger := telemetry.NewLogger(io.Discard, slog.LevelInfo)
	reg := telemetry.NewRegistry()
	for i := 0; i < b.N; i++ {
		m := benchMachine(b)
		jt := telemetry.NewJobTrace("bench", 0, time.Now)
		m.SetSpanSink(jt.Context(0, "bench"))
		m.SetMetrics(reg)
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		logger.Info("run.done", "job", "bench", "cycles", st.Cycles)
	}
}
