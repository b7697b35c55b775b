package sim

import (
	"scaledeep/internal/isa"
	"scaledeep/internal/telemetry"
)

// This file wires the simulator into internal/telemetry: per-tile op and
// stall spans into a JobTrace lane, and metrics through a registry. Metric
// updates are batched: the hot path buckets op durations into a local
// shadow histogram set and counts NACKs/DMAs/link bytes in per-tile fields,
// and Run flushes everything to the registry once at completion
// (publishMetrics) — so telemetry-on runs pay no atomic read-modify-write
// per instruction. Both hooks are off by default and every hot-path check
// is a plain nil test.

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
// the registry's atomic histogram by Histogram.AddBatch. The running sum is
// integral (durations are cycles) and converted once at flush time.
type opHist struct {
	counts [numOpCycleSlots]int64
	n      int64
	sum    int64
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

// SetMetrics attaches a metrics registry (nil detaches). Updates are
// buffered machine-locally while the simulation runs; Run publishes the
// aggregate once it completes.
func (m *Machine) SetMetrics(reg *telemetry.Registry) {
	m.metrics = reg
	m.opHists = opHistSet{}
	if reg == nil {
		return
	}
	if cap(m.pub.counters) == 0 {
		// Pre-size the flush buffers so publishMetrics never grows them.
		m.pub.counters = make([]telemetry.CounterUpdate, 0, 7+NumAttrBuckets)
		m.pub.gauges = make([]telemetry.GaugeUpdate, 0, len(gaugeDescs))
		m.pub.hists = make([]telemetry.HistogramUpdate, 0, 8)
	}
	// Declare the static counter/gauge schema now (zero-valued), so the
	// end-of-run flush updates existing entries instead of creating them.
	cs, gs := Stats{}.statsUpdates(m.pub.counters[:0], m.pub.gauges[:0])
	reg.Apply(cs, gs, nil)
	// Same for the op-duration histograms of any already-loaded programs
	// (LoadProgram declares them for programs installed after this call).
	m.declaredOpHist = false
	m.declaredOps = [isa.NumOpcodes]bool{}
	for _, ct := range m.comp {
		if ct.prog != nil {
			m.declareOpHists(ct.prog)
		}
	}
}

// declareOpHists pre-creates the registry entries for sim.op.cycles (global
// and per-opcode, for the opcodes p contains), so the end-of-run flush never
// allocates histograms inside the measured run.
func (m *Machine) declareOpHists(p *isa.Program) {
	if m.metrics == nil {
		return
	}
	var zero opHist
	hs := m.pub.hists[:0]
	if !m.declaredOpHist {
		m.declaredOpHist = true
		hs = append(hs, opHistDesc.histogram(&zero))
	}
	for i := range p.Instrs {
		if op := p.Instrs[i].Op; !m.declaredOps[op] {
			m.declaredOps[op] = true
			hs = append(hs, opDescs[op].histogram(&zero))
		}
	}
	if len(hs) > 0 {
		m.metrics.Apply(nil, nil, hs)
	}
	m.pub.hists = hs[:0]
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

// publishMetrics flushes the run's buffered telemetry — the Stats-derived
// counters and gauges plus the shadow op-duration histograms — into the
// attached registry as one batched Apply (a single registry lock).
func (m *Machine) publishMetrics() {
	if m.metrics == nil {
		return
	}
	p := &m.pub
	p.counters, p.gauges, p.hists = p.counters[:0], p.gauges[:0], p.hists[:0]
	p.counters, p.gauges = m.stats.statsUpdates(p.counters, p.gauges)
	if m.opHists.all.n > 0 {
		p.hists = append(p.hists, opHistDesc.histogram(&m.opHists.all))
	}
	for op := range m.opHists.byOp {
		if h := &m.opHists.byOp[op]; h.n > 0 {
			p.hists = append(p.hists, opDescs[op].histogram(h))
		}
	}
	m.metrics.Apply(p.counters, p.gauges, p.hists)
}

// pubScratch holds the reusable update buffers behind publishMetrics.
type pubScratch struct {
	counters []telemetry.CounterUpdate
	gauges   []telemetry.GaugeUpdate
	hists    []telemetry.HistogramUpdate
}

// metricDesc is one statically known metric identity: name, label slice and
// precomputed registry key. The label slices are shared (the registry
// retains them on creation), so the per-run flush allocates neither label
// slices nor key strings.
type metricDesc struct {
	name   string
	key    string
	labels []telemetry.Label
}

func newDesc(name string, labels ...telemetry.Label) metricDesc {
	return metricDesc{name: name, key: telemetry.MetricKey(name, labels...), labels: labels}
}

var (
	descNACKs        = newDesc("sim.nacks")
	descDMATransfers = newDesc("sim.dma.transfers")
	descFLOPs        = newDesc("sim.flops")
	descInstructions = newDesc("sim.instructions")
	linkDescs        = [3]metricDesc{
		newDesc("sim.link.bytes", telemetry.Label{Key: "link", Value: "comp-mem"}),
		newDesc("sim.link.bytes", telemetry.Label{Key: "link", Value: "mem-mem"}),
		newDesc("sim.link.bytes", telemetry.Label{Key: "link", Value: "ext"}),
	}
	attrDescs = func() [NumAttrBuckets]metricDesc {
		var out [NumAttrBuckets]metricDesc
		for b := AttrBucket(0); b < NumAttrBuckets; b++ {
			out[b] = newDesc("sim.cycles.attr", telemetry.Label{Key: "bucket", Value: b.String()})
		}
		return out
	}()
	gaugeDescs = [4]metricDesc{
		newDesc("sim.cycles"),
		newDesc("sim.pe_utilization"),
		newDesc("sim.sfu_utilization"),
		newDesc("sim.active_comp_tiles"),
	}
	opHistDesc = newDesc("sim.op.cycles")
	opDescs    = func() [isa.NumOpcodes]metricDesc {
		var out [isa.NumOpcodes]metricDesc
		for op := range out {
			out[op] = newDesc("sim.op.cycles", telemetry.Label{Key: "op", Value: isa.Opcode(op).String()})
		}
		return out
	}()
)

func (d metricDesc) counter(v int64) telemetry.CounterUpdate {
	return telemetry.CounterUpdate{Name: d.name, Labels: d.labels, Key: d.key, Value: v}
}

func (d metricDesc) gauge(v float64) telemetry.GaugeUpdate {
	return telemetry.GaugeUpdate{Name: d.name, Labels: d.labels, Key: d.key, Value: v}
}

func (d metricDesc) histogram(h *opHist) telemetry.HistogramUpdate {
	return telemetry.HistogramUpdate{
		Name: d.name, Labels: d.labels, Key: d.key,
		Bounds: opCycleBuckets, Counts: h.counts[:], Sum: float64(h.sum), N: h.n,
	}
}

// statsUpdates collects the full aggregate as batch updates. The slices are
// appended to in place (pass reusable buffers, or nil for fresh ones).
func (s Stats) statsUpdates(cs []telemetry.CounterUpdate, gs []telemetry.GaugeUpdate) ([]telemetry.CounterUpdate, []telemetry.GaugeUpdate) {
	cs = append(cs,
		descNACKs.counter(s.NACKs),
		descDMATransfers.counter(s.DMATransfers),
		linkDescs[linkCompMem].counter(s.CompMemBytes),
		linkDescs[linkMemMem].counter(s.MemMemBytes),
		linkDescs[linkExt].counter(s.ExtMemBytes),
		descFLOPs.counter(s.FLOPs),
		descInstructions.counter(s.Instructions))
	total := s.AttrTotal()
	for b := AttrBucket(0); b < NumAttrBuckets; b++ {
		cs = append(cs, attrDescs[b].counter(int64(total[b])))
	}
	gs = append(gs,
		gaugeDescs[0].gauge(float64(s.Cycles)),
		gaugeDescs[1].gauge(s.PEUtilization()),
		gaugeDescs[2].gauge(s.SFUUtilization()),
		gaugeDescs[3].gauge(float64(s.ActiveComp)))
	return cs, gs
}

// Publish writes the run's aggregate statistics into reg using the
// simulator's metric names, so a snapshot taken after Run matches the
// printed Stats exactly. Counters are raised to their aggregate value
// (monotonic; re-publishing the same stats is a no-op).
func (s Stats) Publish(reg *telemetry.Registry) {
	cs, gs := s.statsUpdates(nil, nil)
	reg.Apply(cs, gs, nil)
}

// StatsRegistry builds a fresh registry holding one run's statistics — the
// snapshot source for machine-readable reports when no live registry was
// attached to the machine.
func StatsRegistry(s Stats) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	s.Publish(reg)
	return reg
}
