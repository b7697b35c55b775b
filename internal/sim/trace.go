package sim

import (
	"fmt"
	"strings"

	"scaledeep/internal/telemetry"
)

// TraceEvent is one recorded simulator event: a coarse operation's
// execution interval on a tile, or a stall on a data-flow tracker.
type TraceEvent struct {
	Start Cycle
	End   Cycle // == Start for stall events
	Tile  string
	Op    string // mnemonic, or "STALL"
	Note  string // tracker description for stalls
}

func (e TraceEvent) String() string {
	if e.Op == "STALL" {
		return fmt.Sprintf("%8d          %-16s STALL %s", e.Start, e.Tile, e.Note)
	}
	return fmt.Sprintf("%8d-%-8d %-16s %s", e.Start, e.End, e.Tile, e.Op)
}

// EnableTrace starts recording coarse-op and stall events, keeping at most
// limit entries (0 = a generous default). Tracing is off by default: the
// big sweeps would otherwise accumulate millions of events.
func (m *Machine) EnableTrace(limit int) {
	if limit <= 0 {
		limit = 1 << 16
	}
	m.traceLimit = limit
	m.trace = make([]TraceEvent, 0, 256)
	m.tracing = true
}

// Trace returns the recorded events in emission order. TraceDropped reports
// how many events exceeded the limit.
func (m *Machine) Trace() []TraceEvent { return m.trace }

// TraceDropped returns the number of events discarded after the limit.
func (m *Machine) TraceDropped() int { return m.traceDropped }

func (m *Machine) traceOp(ct *compTile, ins *dinstr, start, end Cycle) {
	if m.spans != nil && m.spanFits() {
		m.emitSpan(ct.name(), ins.name, start, end)
	}
	if m.metrics != nil {
		m.observeOp(ins.op, end-start)
	}
	if !m.tracing {
		return
	}
	if len(m.trace) >= m.traceLimit {
		m.traceDropped++
		return
	}
	m.trace = append(m.trace, TraceEvent{Start: start, End: end, Tile: ct.name(), Op: ins.name})
}

func (m *Machine) traceStall(ct *compTile, t *tracker, desc string) {
	span := m.spans != nil && m.spanFits()
	if !span && !m.tracing {
		return
	}
	note := desc + " on " + t.String()
	if span {
		m.emitSpan(ct.name(), "STALL", ct.time, ct.time, telemetry.Attr{Key: "note", Value: note})
	}
	if !m.tracing {
		return
	}
	if len(m.trace) >= m.traceLimit {
		m.traceDropped++
		return
	}
	m.trace = append(m.trace, TraceEvent{Start: ct.time, End: ct.time, Tile: ct.name(), Op: "STALL", Note: note})
}

// FormatTrace renders the trace as text, one event per line.
func FormatTrace(events []TraceEvent) string {
	var b strings.Builder
	b.WriteString("   cycles          tile             op\n")
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TraceSummary aggregates a trace: per-op totals and stall counts per tile.
type TraceSummary struct {
	OpCycles map[string]Cycle // busy cycles per mnemonic
	Stalls   map[string]int   // stall events per tile
}

// Summarize aggregates a trace.
func Summarize(events []TraceEvent) TraceSummary {
	s := TraceSummary{OpCycles: map[string]Cycle{}, Stalls: map[string]int{}}
	for _, e := range events {
		if e.Op == "STALL" {
			s.Stalls[e.Tile]++
			continue
		}
		s.OpCycles[e.Op] += e.End - e.Start
	}
	return s
}
