package sim

import (
	"scaledeep/internal/isa"
	"scaledeep/internal/telemetry"
)

// This file wires the simulator into internal/telemetry: per-tile op and
// stall spans into a JobTrace lane, and metrics through a registry's
// instrument handles. SetMetrics resolves the sim.* counters and gauges,
// and SetMetrics and LoadProgram the sim.op.cycles histograms of the loaded
// opcodes, so no registry lookup happens during a run. The hot path buckets
// op durations into a local shadow histogram set and counts NACKs/DMAs/link
// bytes in per-tile fields, and Run publishes through the handles once at
// completion (publishMetrics) — so telemetry-on runs pay no atomic
// read-modify-write per instruction. Both hooks are off by default and
// every hot-path check is a plain nil test.

// SetSpanSink attaches a trace lane (the zero TraceContext detaches). Spans
// carry cycle timestamps: one complete span per coarse operation on a
// per-tile track, plus zero-duration stall spans when a tile blocks on a
// tracker. Each Run reads the lane's room once and builds no span past it.
func (m *Machine) SetSpanSink(tc telemetry.TraceContext) {
	m.spans = tc
	if tc.Enabled() && cap(m.spanBuf) == 0 {
		// Pre-size the per-Run batch so steady-state emission never grows it.
		m.spanBuf = make([]telemetry.Span, 0, 128)
	}
}

// opCycleBuckets are the histogram bounds for coarse-op durations (cycles).
var opCycleBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// opCycleBoundsInt mirrors opCycleBuckets as integers so the hot path
// buckets durations with int compares.
var opCycleBoundsInt = func() []int64 {
	out := make([]int64, len(opCycleBuckets))
	for i, b := range opCycleBuckets {
		out[i] = int64(b)
	}
	return out
}()

// numOpCycleSlots is len(opCycleBuckets) + 1 (the overflow bucket).
const numOpCycleSlots = 10

func init() {
	if len(opCycleBuckets)+1 != numOpCycleSlots {
		panic("sim: numOpCycleSlots out of sync with opCycleBuckets")
	}
}

// opHist is one shadow histogram: per-run local bucket counts, flushed into
// its registry histogram h by Histogram.AddBatch. The running sum is
// integral (durations are cycles) and converted once at flush time.
type opHist struct {
	counts [numOpCycleSlots]int64
	n      int64
	sum    int64
	h      *telemetry.Histogram
}

// opHistSet shadows sim.op.cycles (global) and sim.op.cycles{op=...}.
// Per-op histograms are indexed by opcode — the hot path does two array
// walks per coarse op, no map lookup and no allocation.
type opHistSet struct {
	all  opHist
	byOp [isa.NumOpcodes]opHist
}

// opCycleBucket returns the shadow-histogram slot for a duration.
func opCycleBucket(d Cycle) int {
	i := 0
	for i < len(opCycleBoundsInt) && int64(d) > opCycleBoundsInt[i] {
		i++
	}
	return i
}

// observeOp records one coarse-op duration into the shadow histograms: one
// bucket walk, two plain (non-atomic) histogram updates.
func (m *Machine) observeOp(op isa.Opcode, d Cycle) {
	i := opCycleBucket(d)
	all := &m.opHists.all
	all.counts[i]++
	all.n++
	all.sum += int64(d)
	h := &m.opHists.byOp[op]
	h.counts[i]++
	h.n++
	h.sum += int64(d)
}

// SetMetrics attaches a metrics registry (nil detaches) and resolves the
// handles Run publishes through: the sim.* counters and gauges, created
// zero-valued now, and the op-duration histograms of the programs already
// loaded (LoadProgram resolves them for programs installed later). The run
// itself buffers machine-locally; Run publishes the aggregate once it
// completes.
func (m *Machine) SetMetrics(reg *telemetry.Registry) {
	m.metrics = reg
	m.opHists = opHistSet{}
	if reg == nil {
		m.statsMetrics = statsMetrics{}
		return
	}
	m.statsMetrics = newStatsMetrics(reg)
	for _, ct := range m.comp {
		if ct.prog != nil {
			m.resolveOpHists(ct.prog)
		}
	}
}

// resolveOpHists resolves the sim.op.cycles histograms, global and
// per-opcode for the opcodes p contains, creating them zero-valued, so the
// end-of-run flush never creates a histogram inside the measured run.
func (m *Machine) resolveOpHists(p *isa.Program) {
	if m.metrics == nil {
		return
	}
	if m.opHists.all.h == nil {
		m.opHists.all.h = m.metrics.Histogram("sim.op.cycles", opCycleBuckets)
	}
	for i := range p.Instrs {
		op := p.Instrs[i].Op
		if h := &m.opHists.byOp[op]; h.h == nil {
			h.h = m.metrics.Histogram("sim.op.cycles", opCycleBuckets, telemetry.Label{Key: "op", Value: op.String()})
		}
	}
}

// spanFits reports whether the run's next span fits the lane's room. A span
// that does not is only counted, for flushSpans to report as dropped: the
// lane would drop it anyway, so it is never built.
func (m *Machine) spanFits() bool {
	if len(m.spanBuf) < m.spanRoom {
		return true
	}
	m.spansPastRoom++
	return false
}

// emitSpan buffers one op/stall span; Run flushes the batch to the lane in
// one call (flushSpans), so the hot path never takes the trace's lock.
func (m *Machine) emitSpan(track, name string, start, end Cycle, attrs []telemetry.Attr) {
	m.spanBuf = append(m.spanBuf, telemetry.Span{
		Track: track, Name: name,
		Start: int64(start), Dur: int64(end - start), Attrs: attrs,
	})
}

// flushSpans delivers the run's buffered spans to the attached lane in one
// batch, then reports the spans past its room as dropped. Called on every
// Run exit path so a deadlocked run still surfaces the spans leading up to
// the stall.
func (m *Machine) flushSpans() {
	if len(m.spanBuf) > 0 {
		m.spans.RecordSpans(m.spanBuf)
		m.spanBuf = m.spanBuf[:0]
	}
	m.spans.DropSpans(m.spansPastRoom)
	m.spansPastRoom = 0
}

// addLinkBytes accrues traffic on one link class against the issuing tile.
// The per-op accumulator feeds the instruction profiler's bytes/cycle view;
// Stats and the registry see the per-tile sums at end of run.
func (m *Machine) addLinkBytes(ct *compTile, class linkClass, bytes int64) {
	m.opBytes += bytes
	ct.linkBytes[class] += bytes
}

// publishMetrics flushes the run's buffered telemetry into the attached
// registry: the Stats-derived counters and gauges, and every non-empty
// shadow op-duration histogram.
func (m *Machine) publishMetrics() {
	if m.metrics == nil {
		return
	}
	m.statsMetrics.publish(m.stats)
	if h := &m.opHists.all; h.n > 0 {
		h.h.AddBatch(h.counts[:], float64(h.sum), h.n)
	}
	for op := range m.opHists.byOp {
		if h := &m.opHists.byOp[op]; h.n > 0 {
			h.h.AddBatch(h.counts[:], float64(h.sum), h.n)
		}
	}
}

// statsMetrics are the handles of the sim.* counters and gauges that one
// run's Stats publish to.
type statsMetrics struct {
	nacks, dmaTransfers, flops, instructions *telemetry.Counter

	linkBytes [3]*telemetry.Counter // by linkClass
	attr      [NumAttrBuckets]*telemetry.Counter

	cycles, peUtil, sfuUtil, activeComp *telemetry.Gauge
}

// newStatsMetrics resolves the sim.* counters and gauges in reg, creating
// them zero-valued.
func newStatsMetrics(reg *telemetry.Registry) statsMetrics {
	sm := statsMetrics{
		nacks:        reg.Counter("sim.nacks"),
		dmaTransfers: reg.Counter("sim.dma.transfers"),
		flops:        reg.Counter("sim.flops"),
		instructions: reg.Counter("sim.instructions"),
		cycles:       reg.Gauge("sim.cycles"),
		peUtil:       reg.Gauge("sim.pe_utilization"),
		sfuUtil:      reg.Gauge("sim.sfu_utilization"),
		activeComp:   reg.Gauge("sim.active_comp_tiles"),
	}
	for class, name := range [...]string{linkCompMem: "comp-mem", linkMemMem: "mem-mem", linkExt: "ext"} {
		sm.linkBytes[class] = reg.Counter("sim.link.bytes", telemetry.Label{Key: "link", Value: name})
	}
	for b := range sm.attr {
		sm.attr[b] = reg.Counter("sim.cycles.attr", telemetry.Label{Key: "bucket", Value: AttrBucket(b).String()})
	}
	return sm
}

// publish writes s through the handles. Counters are raised to their
// aggregate value (monotonic; re-publishing the same stats is a no-op).
func (sm *statsMetrics) publish(s Stats) {
	sm.nacks.RaiseTo(s.NACKs)
	sm.dmaTransfers.RaiseTo(s.DMATransfers)
	sm.linkBytes[linkCompMem].RaiseTo(s.CompMemBytes)
	sm.linkBytes[linkMemMem].RaiseTo(s.MemMemBytes)
	sm.linkBytes[linkExt].RaiseTo(s.ExtMemBytes)
	sm.flops.RaiseTo(s.FLOPs)
	sm.instructions.RaiseTo(s.Instructions)
	for b, c := range s.AttrTotal() {
		sm.attr[b].RaiseTo(int64(c))
	}
	sm.cycles.Set(float64(s.Cycles))
	sm.peUtil.Set(s.PEUtilization())
	sm.sfuUtil.Set(s.SFUUtilization())
	sm.activeComp.Set(float64(s.ActiveComp))
}

// Publish writes the run's aggregate statistics into reg using the
// simulator's metric names, so a snapshot taken after Run matches the
// printed Stats exactly. Counters are raised to their aggregate value
// (monotonic; re-publishing the same stats is a no-op).
func (s Stats) Publish(reg *telemetry.Registry) {
	sm := newStatsMetrics(reg)
	sm.publish(s)
}

// StatsRegistry builds a fresh registry holding one run's statistics — the
// snapshot source for machine-readable reports when no live registry was
// attached to the machine.
func StatsRegistry(s Stats) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	s.Publish(reg)
	return reg
}
