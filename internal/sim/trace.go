package sim

import (
	"fmt"
	"strings"

	"scaledeep/internal/telemetry"
)

// The simulator's spans are its execution trace: one span per coarse
// operation on a tile, named by mnemonic, and one zero-duration "STALL"
// span whenever a tile blocks on a data-flow tracker, with a "note"
// attribute naming the tracker. They go to the trace lane attached with
// SetSpanSink.

func (m *Machine) traceOp(ct *compTile, ins *dinstr, start, end Cycle) {
	if m.spans.Enabled() && m.spanFits() {
		m.emitSpan(ct.name(), ins.name, start, end)
	}
	if m.metrics != nil {
		m.observeOp(ins.op, end-start)
	}
}

func (m *Machine) traceStall(ct *compTile, t *tracker, desc string) {
	if m.spans.Enabled() && m.spanFits() {
		m.emitSpan(ct.name(), "STALL", ct.time, ct.time, telemetry.Attr{Key: "note", Value: desc + " on " + t.String()})
	}
}

// FormatTrace renders simulator spans as text, one event per line.
func FormatTrace(spans []telemetry.Span) string {
	var b strings.Builder
	b.WriteString("   cycles          tile             op\n")
	for _, s := range spans {
		if s.Name == "STALL" {
			var note string
			for _, a := range s.Attrs {
				if a.Key == "note" {
					note = a.Value
				}
			}
			fmt.Fprintf(&b, "%8d          %-16s STALL %s\n", s.Start, s.Track, note)
			continue
		}
		fmt.Fprintf(&b, "%8d-%-8d %-16s %s\n", s.Start, s.Start+s.Dur, s.Track, s.Name)
	}
	return b.String()
}

// TraceSummary aggregates a trace: per-op totals and stall counts per tile.
type TraceSummary struct {
	OpCycles map[string]Cycle // busy cycles per mnemonic
	Stalls   map[string]int   // stall events per tile
}

// Summarize aggregates simulator spans.
func Summarize(spans []telemetry.Span) TraceSummary {
	s := TraceSummary{OpCycles: map[string]Cycle{}, Stalls: map[string]int{}}
	for _, sp := range spans {
		if sp.Name == "STALL" {
			s.Stalls[sp.Track]++
			continue
		}
		s.OpCycles[sp.Name] += Cycle(sp.Dur)
	}
	return s
}
