package compiler

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/isa"
	"scaledeep/internal/sim"
	"scaledeep/internal/telemetry"
)

// phaseSpan records one compiler phase on the "compiler" track: wall-clock
// microseconds relative to base (the pipeline's start).
func phaseSpan(sink telemetry.SpanSink, base, start time.Time, name string) {
	if sink == nil {
		return
	}
	sink.RecordSpan(telemetry.Span{
		Track: "compiler", Name: name,
		Start: start.Sub(base).Microseconds(),
		Dur:   time.Since(start).Microseconds(),
	})
}

// Options configure code generation.
type Options struct {
	Minibatch  int  // training inputs per minibatch (≥1)
	Iterations int  // minibatch iterations to run (1 to math.MaxInt32)
	Training   bool // emit BP/WG and the weight update; false = FP only
	// LR is the SGD learning rate applied to the summed minibatch gradient
	// (quantized to the WUPDATE fixed-point format, 1/2^16 steps).
	LR float32
	// WeightsOffChip stores layer weights in external memory instead of the
	// MemHeavy scratchpads (STEP6's other placement; §3.2.3: weights are
	// then streamed in when the layer executes). Gradients stay on-chip and
	// the weight update writes back to external memory.
	WeightsOffChip bool
	// Spans, when non-nil, receives wall-time spans (track "compiler", µs
	// timestamps) for the map/bind/emit/finalize phases of Fig. 13.
	Spans telemetry.SpanSink
}

// External-memory layout (element addresses).
const (
	extInputBase  int64 = 0
	extGoldenBase int64 = 4 << 20
	extOutputBase int64 = 8 << 20
	extWeightBase int64 = 16 << 20 // off-chip weight area (Options.WeightsOffChip)
)

// Compiled is the code-generation result: one program per CompHeavy tile,
// the tracker manifest, and the binding information the harness needs to
// load weights/inputs and read results.
type Compiled struct {
	Mapping  *Mapping
	Opts     Options
	Programs map[progKey]*isa.Program
	Trackers []sim.TrackerSpec

	// LayerTags binds each program's instructions back to network layers:
	// LayerTags[k][i] is the dnn layer index the stored instruction
	// Programs[k].Instrs[i] works for, or -1 for control/synchronization
	// scaffolding; a pc's tag is at the index Programs[k].Locate gives.
	// The per-layer bottleneck profiler (internal/profile) joins this with
	// the simulator's per-instruction cycle attribution.
	LayerTags map[progKey][]int

	// weightRegions[layerIdx][g] is the on-chip region holding the kernels
	// (or FC row-slice) for input feature / slice g; nil entries mean the
	// unit's weights live off-chip at extWeightAddrs[layerIdx][g].
	weightRegions  map[int]map[int]*region
	extWeightAddrs map[int]map[int]int64

	InputElems  int64 // elements per input image
	OutputElems int64 // elements per network output
}

// gen carries code-generation state. Feature and error regions are
// replicated per minibatch image: the inter-layer pipeline (Fig. 10) keeps
// several images in flight, and per-image copies make every data-flow
// tracker generation independent. (The paper provisions two copies and
// bounds pipeline skew in its scheduler; per-image copies achieve the same
// correctness with a simpler invariant — see DESIGN.md §6.) The emitters
// generate image 0's code once, addressing image 0's copies; the program
// repeats that template once per image, each later copy's per-image
// operands rebased by their strides (see finalize).
type gen struct {
	m        *Mapping
	chip     arch.ChipConfig
	opts     Options
	em       *emitter
	al       *allocator
	out      *Compiled
	maps     []*LayerMap
	grad     gradMap
	stage    gradMap
	ystage   gradMap
	estage   gradMap
	convSc   map[int]*convScratch
	gstage   map[TileCoord]*region
	epart    map[[3]int]*region
	extWNext int64 // bump allocator for the off-chip weight area

	// feat[mi][f], errRaw[mi][f], errDrv[mi][f]: image 0's copy of each
	// per-image region
	feat   []map[int]*region
	errRaw []map[int]*region
	errDrv []map[int]*region

	locals []map[TileCoord][]int // localInputs' lists, by layer and tile
}

type gradMap = map[int]map[int]*region

// Generate runs the code-generation phase on a mapping.
func Generate(m *Mapping, opts Options) (*Compiled, error) {
	return generate(m, opts, time.Now())
}

// generate is Generate with an explicit telemetry time base, so Compile can
// put mapping and code generation on one phase timeline.
func generate(m *Mapping, opts Options, base time.Time) (*Compiled, error) {
	if opts.Minibatch < 1 {
		opts.Minibatch = 1
	}
	if opts.Iterations < 1 {
		opts.Iterations = 1
	}
	if opts.Iterations > math.MaxInt32 {
		// finalize loads the count into a register as an int32 immediate.
		return nil, fmt.Errorf("compiler: %d iterations exceed the ISA's iteration counter (max %d)", opts.Iterations, math.MaxInt32)
	}
	capElems := int64(m.Chip.MemHeavy.CapacityKB) * 1024 / 4
	al := newAllocator(m.Chip.Rows, m.Chip.Rows*(m.Chip.Cols+1), capElems)
	maps := m.MappedLayers()
	g := &gen{
		m: m, chip: m.Chip, opts: opts,
		em: newEmitter(al, opts.Minibatch), al: al,
		maps: maps, locals: make([]map[TileCoord][]int, len(maps)),
		out: &Compiled{
			Mapping: m, Opts: opts,
			weightRegions:  map[int]map[int]*region{},
			extWeightAddrs: map[int]map[int]int64{},
		},
	}
	in := m.Net.Layers[0]
	g.out.InputElems = int64(in.Out.Elems())
	last := g.maps[len(g.maps)-1].Layer
	g.out.OutputElems = int64(last.Out.Elems())

	if err := g.run(base); err != nil {
		return nil, err
	}
	tFin := time.Now()
	if err := g.em.finalize(opts.Iterations, g.out); err != nil {
		return nil, err
	}
	phaseSpan(opts.Spans, base, tFin, "finalize")
	return g.out, nil
}

// LayerName resolves a LayerTags entry to the network layer's name
// ("(other)" for scaffolding tagged -1).
func (c *Compiled) LayerName(tag int) string {
	if tag < 0 || tag >= len(c.Mapping.Net.Layers) {
		return "(other)"
	}
	return c.Mapping.Net.Layers[tag].Name
}

// run binds every layer's state, then emits the program template: image
// 0's head and layers once, the weight update with them, and the
// iteration barrier. It extends image 0's ledger to the whole minibatch
// before the barrier; finalize makes the template each program's repeated
// section, one copy per image.
func (g *gen) run(base time.Time) error {
	// Bind phase: allocate every layer's feature/error/weight state to tiles.
	tBind := time.Now()
	for mi, lm := range g.maps {
		g.allocLayerState(mi, lm)
	}
	phaseSpan(g.opts.Spans, base, tBind, "bind")
	if g.al.err != nil {
		return g.al.err
	}
	// Emit phase: image 0's template, once. Per-layer persistent scratch
	// (partial sums, staging) is allocated by the emitters as they go, and
	// the weight update goes to the batch and prologue sections.
	tEmit := time.Now()
	// The head comes first: it shares BP tiles with the final layer, and its
	// error-seeding ops must precede that layer's backward convolutions in
	// program order. Its instructions are attributed to the final layer, on
	// whose behalf the loss gradient is seeded.
	if g.opts.Training {
		g.em.setLayer(g.maps[len(g.maps)-1].Layer.Index)
		g.emitHead()
	}
	for mi, lm := range g.maps {
		g.em.setLayer(lm.Layer.Index)
		switch lm.Layer.Kind {
		case dnn.Conv:
			g.emitConvFP(mi, lm)
			if g.opts.Training {
				g.emitConvBPWG(mi, lm)
			}
		case dnn.Pool:
			g.emitPoolFP(mi, lm)
			if g.opts.Training {
				g.emitPoolBP(mi, lm)
			}
		case dnn.FC:
			g.emitFCFP(mi, lm)
			if g.opts.Training {
				g.emitFCBPWG(mi, lm)
			}
		}
	}
	g.em.replicateImages()
	g.em.setLayer(untaggedLayer)
	g.emitBarrier()
	phaseSpan(g.opts.Spans, base, tEmit, "emit")
	return g.al.err
}

// emitBarrier emits the iteration barrier: every program deposits a token
// in a shared tracked range and then reads the full set, so no tile starts
// iteration k+1 before every tile has finished iteration k — modeling the
// minibatch-end gradient accumulation and weight distribution over the
// wheel arcs and ring (§3.3).
func (g *gen) emitBarrier() {
	bar := g.al.alloc(TileCoord{Row: 0, MCol: 0}, 1, "barrier", kindBarrier)
	bar.gens = 1
	g.em.sec = secBatch
	for _, k := range g.em.keys() {
		tok := g.al.alloc(TileCoord{Row: k.Row, MCol: k.CCol}, 1,
			fmt.Sprintf("tok.r%d.c%d.%d", k.Row, k.CCol, k.Step), kindData)
		g.em.op(k, isa.MEMSET, []opr{A(bar, 0), C(isa.AbsTile(bar.tile)), C(1), C(0)}, wr(bar))
		g.em.op(k, isa.DMALOAD,
			[]opr{A(bar, 0), C(isa.AbsTile(bar.tile)), A(tok, 0), C(isa.PortLeft), C(1), C(0)},
			rd(bar))
	}
	g.em.sec = secIter
}

// featureElems returns the per-unit element count of a layer's output.
func featureElems(lm *LayerMap) int64 {
	l := lm.Layer
	switch l.Kind {
	case dnn.Conv, dnn.Pool:
		return int64(l.Out.H * l.Out.W)
	case dnn.FC:
		return int64(sliceLen(l.OutNeurons, len(lm.Homes), 0)) // max slice size
	}
	return 0
}

// sliceLen returns the length of FC output slice s when out neurons split
// into n near-equal slices (first slices take the remainder).
func sliceLen(out, n, s int) int {
	q, r := out/n, out%n
	if s < r {
		return q + 1
	}
	return q
}

// sliceOff returns the starting neuron of slice s.
func sliceOff(out, n, s int) int {
	q, r := out/n, out%n
	if s < r {
		return s * (q + 1)
	}
	return r*(q+1) + (s-r)*q
}

// allocLayerState allocates feature, error and weight regions for a layer.
// Feature and error regions get one copy per minibatch image, up to the
// first allocation past a tile's capacity: Compile fails with that error,
// so the remaining images of a huge minibatch need no regions. A unit's
// copies sit image after image on its home tile, so each copy is one
// stride (the unit's per-image footprint) past the previous image's.
func (g *gen) allocLayerState(mi int, lm *LayerMap) {
	l := lm.Layer
	mb := g.opts.Minibatch
	g.feat = append(g.feat, map[int]*region{})
	g.errRaw = append(g.errRaw, map[int]*region{})
	g.errDrv = append(g.errDrv, map[int]*region{})

	for f, home := range lm.Homes {
		size := featureElems(lm)
		if l.Kind == dnn.FC {
			size = int64(sliceLen(l.OutNeurons, len(lm.Homes), f))
		}
		// The names read "<layer>.feat<f>" (and eraw, edrv); label adds
		// ".i<img>".
		unit := strconv.Itoa(f)
		feat := l.Name + ".feat" + unit
		names := []string{feat}
		if g.opts.Training {
			names = []string{feat, l.Name + ".eraw" + unit, l.Name + ".edrv" + unit}
		}
		img0 := g.al.allocImages(home, size, mb, names...)
		if len(img0) == 0 {
			continue
		}
		g.feat[mi][f] = &img0[0]
		if g.opts.Training {
			g.errRaw[mi][f], g.errDrv[mi][f] = &img0[1], &img0[2]
		}
	}

	if !l.HasWeights() {
		return
	}
	g.out.weightRegions[l.Index] = map[int]*region{}
	g.out.extWeightAddrs[l.Index] = map[int]int64{}
	allocW := func(unit int, tc TileCoord, size int64) {
		if g.opts.WeightsOffChip {
			g.out.extWeightAddrs[l.Index][unit] = g.extWNext
			g.extWNext += size
		} else {
			g.out.weightRegions[l.Index][unit] = g.al.alloc(tc, size, fmt.Sprintf("%s.w%d", l.Name, unit), kindWeight)
		}
		if g.opts.Training {
			dw := g.al.alloc(tc, size, fmt.Sprintf("%s.dw%d", l.Name, unit), kindGrad)
			g.gradRegion(l.Index, unit, dw)
		}
	}
	switch l.Kind {
	case dnn.Conv:
		k2 := int64(l.ConvP.KH * l.ConvP.KW)
		for g2 := 0; g2 < l.In.C; g2++ {
			allocW(g2, g.convInputTile(mi, lm, g2), int64(l.OutChannels)*k2)
		}
	case dnn.FC:
		inLen := int64(l.In.Elems())
		for s := range lm.Homes {
			sl := int64(sliceLen(l.OutNeurons, len(lm.Homes), s))
			allocW(s, g.fcComputeTile(lm, s), sl*inLen)
		}
	}
}

// weightOperand returns the address/port operands and ledger access for
// reading unit `unit`'s weights of layer l, wherever STEP6 placed them
// (off-chip weights are untracked: their access is the zero regAccess).
func (g *gen) weightOperand(l *dnn.Layer, unit int, offset int64) (addr, port opr, acc regAccess) {
	if r := g.out.weightRegions[l.Index][unit]; r != nil {
		return A(r, offset), C(isa.PortLeft), rd(r)
	}
	return C(extWeightBase + g.out.extWeightAddrs[l.Index][unit] + offset), C(isa.PortExt), regAccess{}
}

func (g *gen) gradRegion(layerIdx, unit int, r *region) {
	if g.grad == nil {
		g.grad = gradMap{}
	}
	if g.grad[layerIdx] == nil {
		g.grad[layerIdx] = map[int]*region{}
	}
	g.grad[layerIdx][unit] = r
}

// convInputTile returns the tile holding input feature g2 of conv layer mi:
// the home of the predecessor's feature, or a round-robin assignment over
// the layer's left tiles when the input comes from external memory.
func (g *gen) convInputTile(mi int, lm *LayerMap, g2 int) TileCoord {
	if mi > 0 {
		return g.maps[mi-1].Homes[g2%len(g.maps[mi-1].Homes)]
	}
	idx := g2 % (g.chip.Rows * len(lm.Cols))
	return TileCoord{Row: idx % g.chip.Rows, MCol: lm.Cols[idx/g.chip.Rows]}
}

// fcComputeTile returns the compute tile of FC slice s.
func (g *gen) fcComputeTile(lm *LayerMap, s int) TileCoord {
	idx := s % (g.chip.Rows * len(lm.Cols))
	return TileCoord{Row: idx % g.chip.Rows, MCol: lm.Cols[idx/g.chip.Rows]}
}

// localInputs returns the input features of conv/pool layer mi whose storage
// tile is tc, in ascending order. A layer's lists are built once per
// compile, on first use, and shared by the layer's emitters.
func (g *gen) localInputs(mi int, lm *LayerMap, tc TileCoord) []int {
	byTile := g.locals[mi]
	if byTile == nil {
		byTile = map[TileCoord][]int{}
		for g2 := 0; g2 < lm.Layer.In.C; g2++ {
			t := g.convInputTile(mi, lm, g2)
			byTile[t] = append(byTile[t], g2)
		}
		g.locals[mi] = byTile
	}
	return byTile[tc]
}

// inputOperand returns the operand and ledger access for reading input
// feature g2 of layer mi: a region access for on-chip features, or a
// per-image external-memory address (and the zero regAccess) for the first
// layer.
func (g *gen) inputOperand(mi, g2 int) (addr, port opr, acc regAccess) {
	if mi > 0 {
		r := g.feat[mi-1][g2]
		return A(r, 0), C(isa.AbsTile(r.tile)), rd(r)
	}
	l := g.maps[mi].Layer
	chSize := int64(l.In.H * l.In.W)
	return Ext(extInputBase+int64(g2)*chSize, g.out.InputElems), C(isa.PortExt), regAccess{}
}
