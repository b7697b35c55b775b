package sim

import (
	"strings"
	"testing"

	"scaledeep/internal/isa"
	"scaledeep/internal/telemetry"
)

// traceInto attaches a fresh single-lane trace keeping at most limit spans
// (0 = the telemetry default) to m.
func traceInto(m *Machine, limit int) *telemetry.JobTrace {
	jt := telemetry.NewJobTrace("run", limit, nil)
	m.SetSpanSink(jt.Context(0, ""))
	return jt
}

func TestTraceRecordsOpsAndStalls(t *testing.T) {
	m := newTestMachine()
	jt := traceInto(m, 0)
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
	mustRun(t, m)

	events := jt.Assemble()
	if len(events) < 3 {
		t.Fatalf("trace too short: %v", events)
	}
	sawDMA, sawStall := false, false
	for _, e := range events {
		if e.Name == "DMASTORE" {
			sawDMA = true
			if e.Dur < 0 {
				t.Fatalf("negative duration: %v", e)
			}
		}
		if e.Name == "STALL" {
			sawStall = true
			if len(e.Attrs) != 1 || e.Attrs[0].Key != "note" || !strings.Contains(e.Attrs[0].Value, "track") {
				t.Fatalf("stall note missing tracker: %v", e)
			}
		}
	}
	if !sawDMA || !sawStall {
		t.Fatalf("trace missing events (dma=%v stall=%v):\n%s", sawDMA, sawStall, FormatTrace(events))
	}

	text := FormatTrace(events)
	if !strings.Contains(text, "comp[r0,c1,FP]") || !strings.Contains(text, "STALL DMA on track[") {
		t.Fatalf("formatted trace:\n%s", text)
	}

	sum := Summarize(events)
	if sum.OpCycles["DMASTORE"] <= 0 {
		t.Fatal("summary missing DMASTORE cycles")
	}
	if sum.Stalls["comp[r0,c1,FP]"] == 0 {
		t.Fatal("summary missing consumer stall")
	}
}

// TestTraceLimitDropsExcess: a lane with room for two spans keeps the
// run's first two and counts the other 198 as dropped, without the machine
// building them: its span batch never grows past the 128 spans SetSpanSink
// sizes it for.
func TestTraceLimitDropsExcess(t *testing.T) {
	m := newTestMachine()
	jt := traceInto(m, 2)
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1})
	var groups [][]isa.Instr
	for i := 0; i < 200; i++ {
		groups = append(groups, opInstr(isa.DMASTORE, 0, isa.PortLeft, int64(100+i), isa.PortExt, 1, 0))
	}
	if err := m.LoadProgram(0, 0, StepFP, prog("t", groups...)); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	events := jt.Assemble()
	if len(events) != 2 {
		t.Fatalf("trace kept %d events, limit 2", len(events))
	}
	if events[0].Start >= events[1].Start {
		t.Fatalf("trace kept %v, want the run's first two ops in order", events)
	}
	if jt.Dropped() != 198 {
		t.Fatalf("dropped %d, want 198", jt.Dropped())
	}
	if cap(m.spanBuf) > 128 {
		t.Fatalf("span batch grew to %d for a 2-span lane", cap(m.spanBuf))
	}
}

func TestSummarizeAndFormatEmptyTrace(t *testing.T) {
	sum := Summarize(nil)
	if len(sum.OpCycles) != 0 || len(sum.Stalls) != 0 {
		t.Fatalf("empty trace summarized to %+v", sum)
	}
	text := FormatTrace(nil)
	if !strings.Contains(text, "cycles") || strings.Count(text, "\n") != 1 {
		t.Fatalf("empty trace formatted to %q", text)
	}
}

func TestSummarizeStallOnlyTrace(t *testing.T) {
	note := func(v string) []telemetry.Attr { return []telemetry.Attr{{Key: "note", Value: v}} }
	events := []telemetry.Span{
		{Start: 10, Track: "comp[r0,c0,FP]", Name: "STALL", Attrs: note("read on tracker")},
		{Start: 12, Track: "comp[r0,c0,FP]", Name: "STALL", Attrs: note("read on tracker")},
		{Start: 15, Track: "comp[r1,c0,FP]", Name: "STALL", Attrs: note("write on tracker")},
	}
	sum := Summarize(events)
	if len(sum.OpCycles) != 0 {
		t.Fatalf("stall-only trace produced op cycles: %v", sum.OpCycles)
	}
	if sum.Stalls["comp[r0,c0,FP]"] != 2 || sum.Stalls["comp[r1,c0,FP]"] != 1 {
		t.Fatalf("stall counts: %v", sum.Stalls)
	}
	text := FormatTrace(events)
	if strings.Count(text, "STALL") != 3 || !strings.Contains(text, "      15          comp[r1,c0,FP]   STALL write on tracker\n") {
		t.Fatalf("formatted stall-only trace:\n%s", text)
	}
}

func TestSummarizeTraceAtDropLimit(t *testing.T) {
	m := newTestMachine()
	jt := traceInto(m, 3)
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1})
	var groups [][]isa.Instr
	for i := 0; i < 6; i++ {
		groups = append(groups, opInstr(isa.DMASTORE, 0, isa.PortLeft, int64(100+i), isa.PortExt, 1, 0))
	}
	if err := m.LoadProgram(0, 0, StepFP, prog("t", groups...)); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	if jt.Dropped() == 0 {
		t.Fatal("expected drops at the limit")
	}
	events := jt.Assemble()
	if len(events) != 3 {
		t.Fatalf("kept %d events, limit 3", len(events))
	}
	// The truncated trace still summarizes and formats cleanly.
	sum := Summarize(events)
	if sum.OpCycles["DMASTORE"] <= 0 {
		t.Fatalf("summary of truncated trace: %+v", sum)
	}
	if lines := strings.Count(FormatTrace(events), "\n"); lines != 4 {
		t.Fatalf("formatted truncated trace has %d lines", lines)
	}
}

// TestTraceDisabledByDefault: a machine with no lane attached builds no
// spans, and one detached with the zero TraceContext records nothing.
func TestTraceDisabledByDefault(t *testing.T) {
	m := newTestMachine()
	producerConsumer(t, m)
	mustRun(t, m)
	if cap(m.spanBuf) != 0 {
		t.Fatal("spans built without a trace lane")
	}
	m.Reset()
	jt := traceInto(m, 0)
	m.SetSpanSink(telemetry.TraceContext{})
	producerConsumer(t, m)
	mustRun(t, m)
	if n, d := len(jt.Assemble()), jt.Dropped(); n != 0 || d != 0 {
		t.Fatalf("detached lane holds %d spans and counts %d dropped", n, d)
	}
}
