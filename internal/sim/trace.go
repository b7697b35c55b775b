package sim

import (
	"fmt"
	"strings"

	"scaledeep/internal/isa"
	"scaledeep/internal/telemetry"
)

// The simulator's spans are its execution trace: one span per coarse
// operation on a tile, named by mnemonic, and one zero-duration "STALL"
// span whenever a tile blocks on a data-flow tracker, with a "note"
// attribute naming the tracker. They go to the trace lane attached with
// SetSpanSink.

func (m *Machine) traceOp(ct *compTile, op isa.Opcode, start, end Cycle) {
	if m.spans.Enabled() && m.spanFits() {
		m.emitSpan(ct.name(), opTab[op].name, start, end, nil)
	}
	if m.metrics != nil {
		m.observeOp(op, end-start)
	}
}

// traceStall records a STALL span whose note reads "<desc> on <tracker>".
// The note is appended into the machine's reusable buffer and copied out as
// one string, and its one-element attribute slice is carved from noteAttrs.
func (m *Machine) traceStall(ct *compTile, t *tracker, desc string) {
	if m.spans.Enabled() && m.spanFits() {
		b := append(m.noteBuf[:0], desc...)
		b = t.appendTo(append(b, " on "...))
		m.noteBuf = b
		m.emitSpan(ct.name(), "STALL", ct.time, ct.time, m.noteAttr(string(b)))
	}
}

// noteAttr returns a one-element, capacity-capped attribute slice holding
// note. Spans keep their attributes after the run, so a filled chunk is
// never reused: the next note starts a fresh one.
func (m *Machine) noteAttr(note string) []telemetry.Attr {
	if len(m.noteAttrs) == cap(m.noteAttrs) {
		m.noteAttrs = make([]telemetry.Attr, 0, noteAttrChunk)
	}
	n := len(m.noteAttrs)
	m.noteAttrs = append(m.noteAttrs, telemetry.Attr{Key: "note", Value: note})
	return m.noteAttrs[n : n+1 : n+1]
}

// noteAttrChunk is how many STALL attributes share one allocation.
const noteAttrChunk = 64

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
