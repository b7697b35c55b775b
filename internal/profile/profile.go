// Package profile turns the simulator's cycle attribution into a per-layer
// bottleneck report. It joins three sources: the compiler's program→layer
// binding metadata (Compiled.LayerTags), the simulator's per-instruction
// accounting (Machine.InstrProfile), and the architecture's peak rates —
// then classifies each layer as compute-, memory- or interconnect-bound
// using the roofline rule of Williams et al.: operational intensity below
// the machine's ridge point means the memory system, not the PE arrays,
// bounds the layer, unless synchronization stalls dominate outright.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"scaledeep/internal/compiler"
	"scaledeep/internal/sim"
)

// Verdict classifies what bounds a layer.
type Verdict string

const (
	ComputeBound      Verdict = "compute-bound"
	MemoryBound       Verdict = "memory-bound"
	InterconnectBound Verdict = "interconnect-bound"
)

// LayerStat is one layer's share of the run.
type LayerStat struct {
	Layer  string             `json:"layer"`
	Index  int                `json:"index"` // dnn layer index, -1 for scaffolding
	Cycles int64              `json:"cycles"`
	Share  float64            `json:"share"` // of all attributed cycles
	FLOPs  int64              `json:"flops"`
	Bytes  int64              `json:"bytes"`
	FPC    float64            `json:"flopsPerCycle"`
	BPC    float64            `json:"bytesPerCycle"`
	OI     float64            `json:"operationalIntensity"` // FLOPs per byte
	Stalls map[string]float64 `json:"stalls"`               // bucket → fraction of layer cycles
	Bound  Verdict            `json:"verdict"`

	attr sim.CycleAttribution
}

// Report is the full bottleneck profile of one run.
type Report struct {
	Workload string  `json:"workload"`
	Cycles   int64   `json:"cycles"` // total simulated cycles
	PeakFPC  float64 `json:"peakFlopsPerCycle"`
	PeakBPC  float64 `json:"peakBytesPerCycle"`
	Ridge    float64 `json:"ridgeIntensity"` // FLOPs/byte where the roofline bends
	// Layers are ranked by attributed cycles, worst offender first. The
	// trailing "(other)" entry aggregates untagged scaffolding.
	Layers []LayerStat `json:"layers"`
	// Chipwide attribution over every CompHeavy tile, including drain and
	// idle cycles no instruction owns.
	Chip map[string]float64 `json:"chipStallFractions"`
}

// Collect builds the report for a finished run. The machine must have had
// EnableInstrProfile set before Run.
func Collect(c *compiler.Compiled, m *sim.Machine, st sim.Stats) (*Report, error) {
	type acc struct {
		attr  sim.CycleAttribution
		flops int64
		bytes int64
	}
	byLayer := map[int]*acc{}
	profiled := false
	for k := range c.Programs {
		prof := m.InstrProfile(k.Row, k.CCol, k.Step)
		if prof == nil {
			continue
		}
		profiled = true
		p, tags := c.Programs[k], c.LayerTags[k]
		for pc := range prof.Attr {
			tag := -1
			if idx, _ := p.Locate(pc); idx < len(tags) {
				tag = tags[idx]
			}
			a := byLayer[tag]
			if a == nil {
				a = &acc{}
				byLayer[tag] = a
			}
			a.attr = a.attr.Plus(prof.Attr[pc])
			a.flops += prof.FLOPs[pc]
			a.bytes += prof.Bytes[pc]
		}
	}
	if !profiled {
		return nil, fmt.Errorf("profile: no instruction profiles recorded — call Machine.EnableInstrProfile before Run")
	}

	chip := c.Mapping.Chip
	peakFPC := 2 * float64(chip.CompHeavy.MACsPerCycle())
	peakBPC := chip.CompMemGBps * 1e9 / m.FreqHz()
	r := &Report{
		Workload: c.Mapping.Net.Name,
		Cycles:   int64(st.Cycles),
		PeakFPC:  peakFPC,
		PeakBPC:  peakBPC,
		Ridge:    peakFPC / peakBPC,
		Chip:     map[string]float64{},
	}
	chipTotal := st.AttrTotal()
	if t := chipTotal.Total(); t > 0 {
		for b := sim.AttrBucket(0); b < sim.NumAttrBuckets; b++ {
			r.Chip[b.String()] = float64(chipTotal[b]) / float64(t)
		}
	}

	var grand int64
	for _, a := range byLayer {
		grand += int64(a.attr.Total())
	}
	for tag, a := range byLayer {
		total := int64(a.attr.Total())
		if total == 0 {
			continue
		}
		ls := LayerStat{
			Layer:  c.LayerName(tag),
			Index:  tag,
			Cycles: total,
			FLOPs:  a.flops,
			Bytes:  a.bytes,
			FPC:    float64(a.flops) / float64(total),
			BPC:    float64(a.bytes) / float64(total),
			Stalls: map[string]float64{},
			attr:   a.attr,
		}
		if tag < 0 {
			ls.Index = -1
		}
		if grand > 0 {
			ls.Share = float64(total) / float64(grand)
		}
		if a.bytes > 0 {
			ls.OI = float64(a.flops) / float64(a.bytes)
		}
		for b := sim.AttrBucket(0); b < sim.NumAttrBuckets; b++ {
			ls.Stalls[b.String()] = a.attr.Fraction(b)
		}
		ls.Bound = classify(a.attr, ls.OI, r.Ridge)
		r.Layers = append(r.Layers, ls)
	}
	sort.Slice(r.Layers, func(i, j int) bool {
		if r.Layers[i].Cycles != r.Layers[j].Cycles {
			return r.Layers[i].Cycles > r.Layers[j].Cycles
		}
		return r.Layers[i].Layer < r.Layers[j].Layer
	})
	return r, nil
}

// classify applies the bound rule: when synchronization (tracker stalls +
// resource contention) eats more of the layer than either useful work or
// data movement, the interconnect fabric is the bottleneck; otherwise the
// roofline position decides between compute and memory.
func classify(a sim.CycleAttribution, oi, ridge float64) Verdict {
	syncC := a[sim.AttrTrackNACK] + a[sim.AttrTrackWait] + a[sim.AttrLinkContend]
	if syncC > a[sim.AttrCompute] && syncC > a[sim.AttrDMAWait] {
		return InterconnectBound
	}
	if oi >= ridge && a[sim.AttrCompute] >= a[sim.AttrDMAWait] {
		return ComputeBound
	}
	return MemoryBound
}

// barGlyphs maps the major buckets onto a stacked bar, heaviest work first.
var barGlyphs = []struct {
	b sim.AttrBucket
	g rune
}{
	{sim.AttrCompute, '█'},
	{sim.AttrDMAWait, '▓'},
	{sim.AttrTrackNACK, '▒'},
	{sim.AttrTrackWait, '▒'},
	{sim.AttrLinkContend, '░'},
	{sim.AttrDrain, '·'},
	{sim.AttrIdle, ' '},
}

// bar renders a width-character stacked stall-breakdown bar.
func bar(a sim.CycleAttribution, width int) string {
	total := a.Total()
	if total == 0 {
		return strings.Repeat(" ", width)
	}
	var b strings.Builder
	used := 0
	for _, seg := range barGlyphs {
		n := int(float64(width)*float64(a[seg.b])/float64(total) + 0.5)
		if used+n > width {
			n = width - used
		}
		b.WriteString(strings.Repeat(string(seg.g), n))
		used += n
	}
	if used < width {
		b.WriteString(strings.Repeat(" ", width-used))
	}
	return b.String()
}

// Text renders the ranked top-offenders table. top bounds the number of
// layer rows (0 = all).
func (r *Report) Text(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer bottleneck profile — %s, %d cycles\n", r.Workload, r.Cycles)
	fmt.Fprintf(&b, "peaks per CompHeavy tile: %.1f FLOP/cyc, %.1f B/cyc (ridge %.2f FLOP/B)\n",
		r.PeakFPC, r.PeakBPC, r.Ridge)
	fmt.Fprintf(&b, "chip: %s\n\n", stallSummary(r.Chip))
	b.WriteString("rank  layer       cycles  share  FLOP/cyc   B/cyc  verdict             breakdown (█ compute ▓ dma ▒ tracker ░ contention)\n")
	rows := r.Layers
	if top > 0 && top < len(rows) {
		rows = rows[:top]
	}
	for i, l := range rows {
		fmt.Fprintf(&b, "%4d  %-9s %8d  %4.0f%%  %8.2f  %6.2f  %-18s  |%s|  %s\n",
			i+1, l.Layer, l.Cycles, 100*l.Share, l.FPC, l.BPC, l.Bound,
			bar(l.attr, 24), stallSummary(l.Stalls))
	}
	if top > 0 && top < len(r.Layers) {
		fmt.Fprintf(&b, "      … %d more layers\n", len(r.Layers)-top)
	}
	return b.String()
}

// stallSummary lists the non-zero stall fractions, largest first.
func stallSummary(fr map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var kvs []kv
	for k, v := range fr {
		if v >= 0.005 {
			kvs = append(kvs, kv{k, v})
		}
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].v != kvs[j].v {
			return kvs[i].v > kvs[j].v
		}
		return kvs[i].k < kvs[j].k
	})
	parts := make([]string, len(kvs))
	for i, e := range kvs {
		parts[i] = fmt.Sprintf("%s %.0f%%", e.k, 100*e.v)
	}
	if len(parts) == 0 {
		return "idle"
	}
	return strings.Join(parts, ", ")
}
