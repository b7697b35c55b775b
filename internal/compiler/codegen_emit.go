package compiler

import (
	"fmt"
	"sort"

	"scaledeep/internal/dnn"
	"scaledeep/internal/isa"
	"scaledeep/internal/sim"
	"scaledeep/internal/tensor"
)

// This file instantiates the per-layer-type assembly templates (§4.2). The
// FP step of a CONV layer follows Fig. 9's four steps: per-tile convolution
// with local accumulation, vertical accumulation to the home row,
// horizontal accumulation to the last column, then activation (and
// sampling) before the result is passed to each feature's home tile. BP and
// WG are colocated with the feature they produce, so their accumulations
// stay local and only the already-reduced error features travel.
//
// The generated code fixes the home row at 0. The paper rotates home rows
// per feature batch to balance load; the rotation is a performance detail
// captured by the analytic model (internal/perfmodel), while fixing it here
// keeps every tracker generation uniform.

const homeRow = 0

// fpStep returns the CompHeavy tile set that executes forward work unit
// `idx`. During training, FP work runs on the FP tiles; during evaluation
// the BP and WG tile sets also run FP (§6.1: "during evaluation, the BP/WG
// CompHeavy tiles could also be used to perform FP"), which is where the
// >3× evaluation throughput comes from.
func (g *gen) fpStep(idx int) sim.Step {
	if g.opts.Training {
		return sim.StepFP
	}
	return sim.Step(idx % 3)
}

func actFnKind(a tensor.ActKind) int64 {
	switch a {
	case tensor.ActReLU:
		return isa.ActFnReLU
	case tensor.ActTanh:
		return isa.ActFnTanh
	case tensor.ActSigmoid:
		return isa.ActFnSigmoid
	default:
		panic(fmt.Sprintf("compiler: unsupported activation %v", a))
	}
}

func boolFlag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (g *gen) isLast(mi int) bool { return mi == len(g.maps)-1 }

// outUnitOffset returns the flattened offset of output unit f within the
// layer's full output vector.
func outUnitOffset(lm *LayerMap, f int) int64 {
	l := lm.Layer
	if l.Kind == dnn.FC {
		return int64(sliceOff(l.OutNeurons, len(lm.Homes), f))
	}
	return int64(f) * int64(l.Out.H*l.Out.W)
}

// keys returns the emitter's program keys in deterministic order.
func (e *emitter) keys() []progKey {
	out := make([]progKey, 0, len(e.progs))
	for k := range e.progs {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return lessKey(out[i], out[j]) })
	return out
}

// convScratch holds the per-layer persistent FP scratch: partial-sum regions
// per compute tile plus the activation staging buffer, one set per tile set
// that executes forward batches (one set during training; three during
// evaluation, where the BP/WG tiles also run FP and must not share
// generation-ordered scratch with the FP tiles).
type convScratch struct {
	partial [3]map[TileCoord]*region
	actT    [3]*region
}

// convScratchFor lazily allocates the conv layer's partial-sum regions
// (shared across images; their trackers run one generation per
// output-feature batch executed on that tile set, per image).
func (g *gen) convScratchFor(mi int, lm *LayerMap) *convScratch {
	if g.convSc == nil {
		g.convSc = map[int]*convScratch{}
	}
	if sc := g.convSc[mi]; sc != nil {
		return sc
	}
	l := lm.Layer
	lanes := lm.Array.Lanes
	outHW := int64(l.Out.H * l.Out.W)
	batches := (l.OutChannels + lanes - 1) / lanes
	sets := 1
	if !g.opts.Training {
		sets = 3
		if batches < sets {
			sets = batches
		}
	}
	cols := lm.Cols
	clast := cols[len(cols)-1]
	sc := &convScratch{}
	for set := 0; set < sets; set++ {
		// Generations per iteration for this set: the batches it executes,
		// times the minibatch images.
		nb := batches / sets
		if set < batches%sets {
			nb++
		}
		gens := nb * g.opts.Minibatch
		sc.partial[set] = map[TileCoord]*region{}
		for _, c := range cols {
			for r := 0; r < g.chip.Rows; r++ {
				tc := TileCoord{Row: r, MCol: c}
				if r != homeRow && len(g.localInputs(mi, lm, tc)) == 0 {
					continue
				}
				pr := g.al.alloc(TileCoord{Row: r, MCol: c + 1}, int64(lanes)*outHW,
					fmt.Sprintf("%s.part%d.r%d.c%d", l.Name, set, r, c), kindPartial)
				pr.gens = gens
				sc.partial[set][tc] = pr
			}
		}
		sc.actT[set] = g.al.alloc(TileCoord{Row: homeRow, MCol: clast + 1}, int64(lanes)*outHW,
			fmt.Sprintf("%s.actT%d", l.Name, set), kindPartial)
		sc.actT[set].gens = gens
	}
	g.convSc[mi] = sc
	return sc
}

// fpSet returns the scratch-set index for forward batch b.
func (g *gen) fpSet(mi int, lm *LayerMap, b int) int {
	if g.opts.Training {
		return 0
	}
	lanes := lm.Array.Lanes
	batches := (lm.Layer.OutChannels + lanes - 1) / lanes
	sets := 3
	if batches < sets {
		sets = batches
	}
	return b % sets
}

// emitConvFP emits the CONV-layer forward template.
func (g *gen) emitConvFP(mi int, lm *LayerMap) {
	l := lm.Layer
	R := g.chip.Rows
	cols := lm.Cols
	clast := cols[len(cols)-1]
	lanes := lm.Array.Lanes
	outHW := int64(l.Out.H * l.Out.W)
	batches := (l.OutChannels + lanes - 1) / lanes
	k2 := int64(l.ConvP.KH * l.ConvP.KW)
	sc := g.convScratchFor(mi, lm)

	g.em.sec = secIter
	for b := 0; b < batches; b++ {
		set := g.fpSet(mi, lm, b)
		partial := sc.partial[set]
		actT := sc.actT[set]
		nk := lanes
		if rem := l.OutChannels - b*lanes; rem < nk {
			nk = rem
		}
		// Step 1: per-tile batch convolutions with local accumulation.
		for _, c := range cols {
			for r := 0; r < R; r++ {
				tc := TileCoord{Row: r, MCol: c}
				pr := partial[tc]
				if pr == nil {
					continue
				}
				k := progKey{Row: r, CCol: c, Step: g.fpStep(b)}
				locals := g.localInputs(mi, lm, tc)
				if len(locals) == 0 {
					// Home-row gather target with no local inputs: zero it
					// so the accumulating gathers start clean.
					g.em.op(k, isa.MEMSET,
						[]opr{A(pr, 0), C(isa.PortRight), C(int64(nk) * outHW), C(0)}, wr(pr))
					continue
				}
				for j, g2 := range locals {
					inAddr, inPort, inAcc := g.inputOperand(mi, g2)
					wAddr, wPort, wAcc := g.weightOperand(l, g2, int64(b*lanes)*k2)
					ops := []opr{
						C(isa.ModeFwd), inAddr, inPort, C(int64(l.In.H)), C(int64(l.In.W)),
						wAddr, wPort, C(int64(l.ConvP.KH)),
						C(int64(l.ConvP.StrideH)), C(int64(l.ConvP.PadH)),
						A(pr, 0), C(isa.PortRight), C(int64(nk)), C(boolFlag(j > 0)),
					}
					g.em.op(k, isa.NDCONV, ops, inAcc, wAcc, wr(pr))
				}
			}
		}
		// Step 2: vertical accumulation into the home row, pulled by the
		// home-row tile (reads block on the source partial's tracker).
		for _, c := range cols {
			k0 := progKey{Row: homeRow, CCol: c, Step: g.fpStep(b)}
			pr0 := partial[TileCoord{Row: homeRow, MCol: c}]
			for r := 0; r < R; r++ {
				if r == homeRow {
					continue
				}
				src := partial[TileCoord{Row: r, MCol: c}]
				if src == nil {
					continue
				}
				g.em.op(k0, isa.DMALOAD,
					[]opr{A(src, 0), C(isa.AbsTile(src.tile)), A(pr0, 0), C(isa.PortRight), C(int64(nk) * outHW), C(1)},
					rd(src), wr(pr0))
			}
		}
		// Step 3: horizontal accumulation into the last column.
		kH := progKey{Row: homeRow, CCol: clast, Step: g.fpStep(b)}
		prLast := partial[TileCoord{Row: homeRow, MCol: clast}]
		for _, c := range cols {
			if c == clast {
				continue
			}
			src := partial[TileCoord{Row: homeRow, MCol: c}]
			g.em.op(kH, isa.DMALOAD,
				[]opr{A(src, 0), C(isa.AbsTile(src.tile)), A(prLast, 0), C(isa.PortRight), C(int64(nk) * outHW), C(1)},
				rd(src), wr(prLast))
		}
		// Step 4: activation at the home tile, then pass each feature to its
		// home MemHeavy tile (and the image's output area in external
		// memory for the final layer).
		if l.Act != tensor.ActNone {
			g.em.op(kH, isa.NDACTFN,
				[]opr{C(actFnKind(l.Act)), A(prLast, 0), C(isa.PortRight), C(int64(nk) * outHW), A(actT, 0), C(isa.PortRight)},
				rd(prLast), wr(actT))
		} else {
			g.em.op(kH, isa.DMALOAD,
				[]opr{A(prLast, 0), C(isa.PortRight), A(actT, 0), C(isa.PortRight), C(int64(nk) * outHW), C(0)},
				rd(prLast), wr(actT))
		}
		for j := 0; j < nk; j++ {
			f := b*lanes + j
			fr := g.feat[mi][f]
			g.em.op(kH, isa.DMASTORE,
				[]opr{A(actT, int64(j)*outHW), C(isa.PortRight), A(fr, 0), C(isa.AbsTile(fr.tile)), C(outHW), C(0)},
				rd(actT), wr(fr))
			if g.isLast(mi) {
				dst := Ext(extOutputBase+outUnitOffset(lm, f), g.out.OutputElems)
				g.em.op(kH, isa.DMASTORE,
					[]opr{A(actT, int64(j)*outHW), C(isa.PortRight), dst, C(isa.PortExt), C(outHW), C(0)},
					rd(actT))
			}
		}
	}
}

// emitConvBPWG emits the CONV-layer backward and weight-gradient templates,
// plus the batch-section weight update.
func (g *gen) emitConvBPWG(mi int, lm *LayerMap) {
	l := lm.Layer
	R := g.chip.Rows
	k2 := int64(l.ConvP.KH * l.ConvP.KW)

	for _, c := range lm.Cols {
		for r := 0; r < R; r++ {
			tc := TileCoord{Row: r, MCol: c}
			locals := g.localInputs(mi, lm, tc)
			if len(locals) == 0 {
				continue
			}
			kBP := progKey{Row: r, CCol: c, Step: sim.StepBP}
			kWG := progKey{Row: r, CCol: c, Step: sim.StepWG}
			for _, g2 := range locals {
				// BP: propagate this layer's output errors back to input
				// feature g2's error, colocated with g2 (skip at the first
				// layer — the error at the network input is discarded).
				if mi > 0 {
					eRaw := g.errRaw[mi-1][g2]
					g.em.sec = secIter
					for f := 0; f < l.OutChannels; f++ {
						eF := g.errDrv[mi][f]
						wAddr, wPort, wAcc := g.weightOperand(l, g2, int64(f)*k2)
						ops := []opr{
							C(isa.ModeBwdData), A(eF, 0), C(isa.AbsTile(eF.tile)),
							C(int64(l.Out.H)), C(int64(l.Out.W)),
							wAddr, wPort, C(int64(l.ConvP.KH)),
							C(int64(l.ConvP.StrideH)), C(int64(l.ConvP.PadH)),
							A(eRaw, 0), C(isa.PortLeft), C(1), C(boolFlag(f > 0)),
						}
						g.em.op(kBP, isa.NDCONV, ops, rd(eF), wAcc, wr(eRaw))
					}
					g.finishError(kBP, mi-1, g2, isa.PortLeft)
				}
				// WG: accumulate dW[f][g2] = input(g2) ⊛ error(f) locally.
				g.em.sec = secIter
				dw := g.grad[l.Index][g2]
				for f := 0; f < l.OutChannels; f++ {
					eF := g.errDrv[mi][f]
					inAddr, inPort, inAcc := g.inputOperand(mi, g2)
					ops := []opr{
						C(isa.ModeBwdWeight), inAddr, inPort, C(int64(l.In.H)), C(int64(l.In.W)),
						A(eF, 0), C(isa.AbsTile(eF.tile)), C(int64(l.Out.H)),
						C(int64(l.ConvP.StrideH)), C(int64(l.ConvP.PadH)),
						A(dw, int64(f)*k2), C(isa.PortLeft), C(1), C(1),
					}
					g.em.op(kWG, isa.NDCONV, ops, inAcc, rd(eF), wr(dw))
				}
				g.emitWeightUpdateFor(kWG, l, g2, dw)
			}
		}
	}
}

// finishError turns the raw accumulated error of layer pi's unit g2 into
// the consumable error: copy raw → derived, then multiply in place by the
// producing layer's activation derivative (expressed via the stored forward
// output, §3.1.2).
func (g *gen) finishError(k progKey, pi, g2 int, port int64) {
	eRaw := g.errRaw[pi][g2]
	eDrv := g.errDrv[pi][g2]
	g.em.sec = secIter
	g.em.op(k, isa.DMALOAD,
		[]opr{A(eRaw, 0), C(port), A(eDrv, 0), C(port), C(eRaw.size), C(0)},
		rd(eRaw), wr(eDrv))
	act := g.maps[pi].Layer.Act
	if act != tensor.ActNone {
		y := g.feat[pi][g2]
		g.em.op(k, isa.NDACTFN,
			[]opr{C(isa.ActFnDerivBase + actFnKind(act)), A(y, 0), C(port), C(eDrv.size), A(eDrv, 0), C(port)},
			rd(y), wr(eDrv))
	}
}

// emitWeightUpdateFor emits the end-of-minibatch SGD update for unit `unit`
// of layer l — updating the weights wherever STEP6 placed them — and the
// gradient reset (plus the prologue reset that keeps every tracker
// generation uniform). Off-chip updates are safe because the iteration
// barrier orders them against the next iteration's streamed weight reads.
func (g *gen) emitWeightUpdateFor(k progKey, l *dnn.Layer, unit int, dw *region) {
	lr := int64(float64(g.opts.LR) * float64(int64(1)<<isa.WUpdateLRShift))
	wAddr, wPort, _ := g.weightOperand(l, unit, 0)
	// WUPDATE's tracker accesses are one gradient read and one weight
	// WRITE (the write is gated on the weight generation's reads draining;
	// see sim.execWUpdate) — never a counted weight read. Off-chip weights
	// have no region, and wr(nil) records nothing.
	g.em.sec = secBatch
	g.em.op(k, isa.WUPDATE,
		[]opr{wAddr, wPort, A(dw, 0), C(isa.PortLeft), C(dw.size), C(lr)},
		rd(dw), wr(g.out.weightRegions[l.Index][unit]))
	g.em.op(k, isa.MEMSET, []opr{A(dw, 0), C(isa.PortLeft), C(dw.size), C(0)}, wr(dw))
	g.em.sec = secPrologue
	g.em.op(k, isa.MEMSET, []opr{A(dw, 0), C(isa.PortLeft), C(dw.size), C(0)}, wr(dw))
	g.em.sec = secIter
}

// emitPoolFP emits the SAMP-layer forward template: each feature is
// down-sampled independently on its way to its home tile (§2.2).
func (g *gen) emitPoolFP(mi int, lm *LayerMap) {
	l := lm.Layer
	kind := isa.SampMax
	if l.PoolP.Kind == tensor.AvgPool {
		kind = isa.SampAvg
	}
	g.em.sec = secIter
	for _, c := range lm.Cols {
		for r := 0; r < g.chip.Rows; r++ {
			tc := TileCoord{Row: r, MCol: c}
			for _, g2 := range g.localInputs(mi, lm, tc) {
				k := progKey{Row: r, CCol: c, Step: g.fpStep(g2)}
				inAddr, inPort, inAcc := g.inputOperand(mi, g2)
				out := g.feat[mi][g2]
				g.em.op(k, isa.NDSUBSAMP,
					[]opr{C(kind), inAddr, inPort, C(int64(l.In.H)), C(int64(l.In.W)),
						C(int64(l.PoolP.Window)), C(int64(l.PoolP.Stride)), C(int64(l.PoolP.Pad)),
						A(out, 0), C(isa.AbsTile(out.tile))},
					inAcc, wr(out))
				if g.isLast(mi) {
					dst := Ext(extOutputBase+outUnitOffset(lm, g2), g.out.OutputElems)
					g.em.op(k, isa.DMASTORE,
						[]opr{A(out, 0), C(isa.AbsTile(out.tile)), dst, C(isa.PortExt), C(out.size), C(0)},
						rd(out))
				}
			}
		}
	}
}

// emitPoolBP emits the SAMP-layer backward template: errors are up-sampled
// through the recorded max routing (or spread evenly for average pooling).
func (g *gen) emitPoolBP(mi int, lm *LayerMap) {
	l := lm.Layer
	kind := isa.SampMax
	if l.PoolP.Kind == tensor.AvgPool {
		kind = isa.SampAvg
	}
	for _, c := range lm.Cols {
		for r := 0; r < g.chip.Rows; r++ {
			tc := TileCoord{Row: r, MCol: c}
			k := progKey{Row: r, CCol: c, Step: sim.StepBP}
			for _, g2 := range g.localInputs(mi, lm, tc) {
				if mi == 0 {
					continue
				}
				eOut := g.errDrv[mi][g2]
				eRaw := g.errRaw[mi-1][g2]
				fwdOut := g.feat[mi][g2]
				g.em.sec = secIter
				g.em.op(k, isa.NDUPSAMP,
					[]opr{C(kind), A(eOut, 0), C(isa.AbsTile(eOut.tile)), C(int64(l.In.H)), C(int64(l.In.W)),
						C(int64(l.PoolP.Window)), C(int64(l.PoolP.Stride)), C(int64(l.PoolP.Pad)),
						A(eRaw, 0), C(isa.PortLeft), A(fwdOut, 0)},
					rd(eOut), wr(eRaw))
				g.finishError(k, mi-1, g2, isa.PortLeft)
			}
		}
	}
}

// emitFCFP emits the FC-layer forward template: gather the input vector,
// multiply by the local weight slice, and store the output slice to its
// home tile (model parallelism over output neurons, §3.3.2).
func (g *gen) emitFCFP(mi int, lm *LayerMap) {
	l := lm.Layer
	inLen := int64(l.In.Elems())
	for s := range lm.Homes {
		tc := g.fcComputeTile(lm, s)
		k := progKey{Row: tc.Row, CCol: tc.MCol, Step: g.fpStep(s)}
		xStage := g.fcStage(l.Index, s, tc, inLen)
		g.em.sec = secIter
		if mi == 0 {
			// First layer: gather the flattened input image from external
			// memory in one transfer.
			src := Ext(extInputBase, g.out.InputElems)
			g.em.op(k, isa.DMALOAD,
				[]opr{src, C(isa.PortExt), A(xStage, 0), C(isa.PortLeft), C(inLen), C(0)},
				wr(xStage))
		} else {
			prev := g.maps[mi-1]
			for gp := range prev.Homes {
				in := g.feat[mi-1][gp]
				off := outUnitOffset(prev, gp)
				g.em.op(k, isa.DMALOAD,
					[]opr{A(in, 0), C(isa.AbsTile(in.tile)), A(xStage, off), C(isa.PortLeft), C(in.size), C(0)},
					rd(in), wr(xStage))
			}
		}
		y := g.feat[mi][s]
		sl := int64(sliceLen(l.OutNeurons, len(lm.Homes), s))
		wAddr, wPort, wAcc := g.weightOperand(l, s, 0)
		// Compute into a local stage (single-tile, so program order alone
		// serializes matmul → activation), then pass to the home tile.
		yStage := g.fcYStage(l.Index, s, tc, sl)
		g.em.op(k, isa.MATMUL,
			[]opr{C(isa.ModeFwd), wAddr, wPort, C(sl), C(inLen),
				A(xStage, 0), C(isa.PortLeft), A(yStage, 0), C(isa.PortLeft), C(0)},
			wAcc, rd(xStage), wr(yStage))
		if l.Act != tensor.ActNone {
			g.em.op(k, isa.NDACTFN,
				[]opr{C(actFnKind(l.Act)), A(yStage, 0), C(isa.PortLeft), C(sl), A(yStage, 0), C(isa.PortLeft)},
				rd(yStage), wr(yStage))
		}
		g.em.op(k, isa.DMASTORE,
			[]opr{A(yStage, 0), C(isa.PortLeft), A(y, 0), C(isa.AbsTile(y.tile)), C(sl), C(0)},
			rd(yStage), wr(y))
		if g.isLast(mi) {
			dst := Ext(extOutputBase+outUnitOffset(lm, s), g.out.OutputElems)
			g.em.op(k, isa.DMASTORE,
				[]opr{A(yStage, 0), C(isa.PortLeft), dst, C(isa.PortExt), C(sl), C(0)},
				rd(yStage))
		}
	}
}

// fcStage lazily allocates the per-slice input staging buffer (shared
// across images: its tracker runs one generation per image).
func (g *gen) fcStage(layerIdx, s int, tc TileCoord, inLen int64) *region {
	if g.stage == nil {
		g.stage = gradMap{}
	}
	if g.stage[layerIdx] == nil {
		g.stage[layerIdx] = map[int]*region{}
	}
	if r := g.stage[layerIdx][s]; r != nil {
		return r
	}
	r := g.al.alloc(tc, inLen, fmt.Sprintf("fc%d.x%d", layerIdx, s), kindData)
	r.gens = g.opts.Minibatch
	g.stage[layerIdx][s] = r
	return r
}

// fcYStage lazily allocates the per-slice output staging buffer.
func (g *gen) fcYStage(layerIdx, s int, tc TileCoord, sl int64) *region {
	if g.ystage == nil {
		g.ystage = gradMap{}
	}
	if g.ystage[layerIdx] == nil {
		g.ystage[layerIdx] = map[int]*region{}
	}
	if r := g.ystage[layerIdx][s]; r != nil {
		return r
	}
	r := g.al.alloc(tc, sl, fmt.Sprintf("fc%d.y%d", layerIdx, s), kindData)
	r.gens = g.opts.Minibatch
	g.ystage[layerIdx][s] = r
	return r
}

// fcEStage lazily allocates the per-slice backward staging buffer.
func (g *gen) fcEStage(layerIdx, s int, tc TileCoord, inLen int64) *region {
	if g.estage == nil {
		g.estage = gradMap{}
	}
	if g.estage[layerIdx] == nil {
		g.estage[layerIdx] = map[int]*region{}
	}
	if r := g.estage[layerIdx][s]; r != nil {
		return r
	}
	r := g.al.alloc(tc, inLen, fmt.Sprintf("fc%d.e%d", layerIdx, s), kindData)
	r.gens = g.opts.Minibatch
	g.estage[layerIdx][s] = r
	return r
}

// emitFCBPWG emits the FC-layer backward and weight-gradient templates,
// plus the batch-section weight update.
func (g *gen) emitFCBPWG(mi int, lm *LayerMap) {
	l := lm.Layer
	inLen := int64(l.In.Elems())
	var prev *LayerMap
	if mi > 0 {
		prev = g.maps[mi-1]
	}
	for s := range lm.Homes {
		tc := g.fcComputeTile(lm, s)
		kBP := progKey{Row: tc.Row, CCol: tc.MCol, Step: sim.StepBP}
		kWG := progKey{Row: tc.Row, CCol: tc.MCol, Step: sim.StepWG}
		dw := g.grad[l.Index][s]
		eS := g.errDrv[mi][s]
		sl := int64(sliceLen(l.OutNeurons, len(lm.Homes), s))

		// BP: e_in partial = Wᵀ·e_slice. Each slice scatters its partial into
		// a private per-(unit, slice) region at the unit's home tile; the
		// owner sums them. Overwrite semantics per image keep every
		// iteration independent (accumulating in place would never reset).
		// Skipped at the first layer.
		if mi > 0 {
			eStage := g.fcEStage(l.Index, s, tc, inLen)
			g.em.sec = secIter
			wAddr, wPort, wAcc := g.weightOperand(l, s, 0)
			g.em.op(kBP, isa.MATMUL,
				[]opr{C(isa.ModeBwdData), wAddr, wPort, C(sl), C(inLen),
					A(eS, 0), C(isa.AbsTile(eS.tile)), A(eStage, 0), C(isa.PortLeft), C(0)},
				wAcc, rd(eS), wr(eStage))
			for gp := range prev.Homes {
				part := g.fcEPart(mi, l.Index, gp, s)
				off := outUnitOffset(prev, gp)
				g.em.op(kBP, isa.DMASTORE,
					[]opr{A(eStage, off), C(isa.PortLeft), A(part, 0), C(isa.AbsTile(part.tile)), C(part.size), C(0)},
					rd(eStage), wr(part))
			}
		}

		// WG: dW_slice += e_slice ⊗ x (the paper's vector element-wise
		// multiply, Fig. 5).
		g.em.sec = secIter
		xStage := g.stage[l.Index][s]
		g.em.op(kWG, isa.VECMUL,
			[]opr{A(dw, 0), C(isa.PortLeft), A(eS, 0), C(isa.AbsTile(eS.tile)), C(sl),
				A(xStage, 0), C(isa.PortLeft), C(inLen)},
			rd(eS), rd(xStage), wr(dw))
		g.emitWeightUpdateFor(kWG, l, s, dw)
	}
	// Error finishing: the BP tile whose left MemHeavy tile homes each input
	// unit sums the per-slice partials and derives the consumable error.
	if mi > 0 {
		for gp, home := range prev.Homes {
			k := progKey{Row: home.Row, CCol: home.MCol, Step: sim.StepBP}
			eDrv := g.errDrv[mi-1][gp]
			g.em.sec = secIter
			for s := range lm.Homes {
				part := g.fcEPart(mi, l.Index, gp, s)
				g.em.op(k, isa.DMALOAD,
					[]opr{A(part, 0), C(isa.PortLeft), A(eDrv, 0), C(isa.PortLeft), C(part.size), C(boolFlag(s > 0))},
					rd(part), wr(eDrv))
			}
			act := g.maps[mi-1].Layer.Act
			if act != tensor.ActNone {
				y := g.feat[mi-1][gp]
				g.em.op(k, isa.NDACTFN,
					[]opr{C(isa.ActFnDerivBase + actFnKind(act)), A(y, 0), C(isa.PortLeft), C(eDrv.size), A(eDrv, 0), C(isa.PortLeft)},
					rd(y), wr(eDrv))
			}
		}
	}
}

// fcEPart lazily allocates the per-(input unit, slice) backward partial at
// the unit's home tile. One generation per image: a single writer and a
// single reader, overwritten each image.
func (g *gen) fcEPart(mi, layerIdx, gp, s int) *region {
	if g.epart == nil {
		g.epart = map[[3]int]*region{}
	}
	key := [3]int{layerIdx, gp, s}
	if r := g.epart[key]; r != nil {
		return r
	}
	prev := g.maps[mi-1]
	home := prev.Homes[gp]
	size := g.errDrv[mi-1][gp].size
	r := g.al.alloc(home, size, fmt.Sprintf("fc%d.ep%d.%d", layerIdx, gp, s), kindData)
	r.gens = g.opts.Minibatch
	g.epart[key] = r
	return r
}

// emitHead emits the error computation at the network output (§3.2.3): the
// final FP outputs are compared with the golden outputs fetched from
// external memory, and the difference becomes the BP seed.
func (g *gen) emitHead() {
	mi := len(g.maps) - 1
	lm := g.maps[mi]
	lr1 := int64(1) << isa.WUpdateLRShift // learning rate 1.0: err -= golden
	for f, home := range lm.Homes {
		adj := TileCoord{Row: home.Row, MCol: home.MCol - 1}
		k := progKey{Row: adj.Row, CCol: adj.MCol, Step: sim.StepBP}
		gs := g.headStage(home)
		y := g.feat[mi][f]
		eRaw := g.errRaw[mi][f]
		g.em.sec = secIter
		// err = y
		g.em.op(k, isa.DMALOAD,
			[]opr{A(y, 0), C(isa.AbsTile(y.tile)), A(eRaw, 0), C(isa.AbsTile(eRaw.tile)), C(y.size), C(0)},
			rd(y), wr(eRaw))
		// err -= golden (WUPDATE with lr = 1.0)
		src := Ext(extGoldenBase+outUnitOffset(lm, f), g.out.OutputElems)
		g.em.op(k, isa.DMALOAD,
			[]opr{src, C(isa.PortExt), A(gs, 0), C(isa.AbsTile(gs.tile)), C(y.size), C(0)},
			wr(gs))
		g.em.op(k, isa.WUPDATE,
			[]opr{A(eRaw, 0), C(isa.AbsTile(eRaw.tile)), A(gs, 0), C(isa.AbsTile(gs.tile)), C(y.size), C(lr1)},
			rd(gs), wr(eRaw))
		g.finishErrorAbs(k, mi, f)
	}
}

// headStage lazily allocates the golden-output staging buffer per home tile.
func (g *gen) headStage(home TileCoord) *region {
	if g.gstage == nil {
		g.gstage = map[TileCoord]*region{}
	}
	if r := g.gstage[home]; r != nil {
		return r
	}
	lm := g.maps[len(g.maps)-1]
	r := g.al.alloc(home, featureElems(lm), lm.Layer.Name+".gstage", kindData)
	r.gens = g.opts.Minibatch
	g.gstage[home] = r
	return r
}

// finishErrorAbs is finishError addressed through absolute tile ports (used
// by the head, whose error ranges sit on the right flank).
func (g *gen) finishErrorAbs(k progKey, pi, f int) {
	eRaw := g.errRaw[pi][f]
	eDrv := g.errDrv[pi][f]
	g.em.op(k, isa.DMALOAD,
		[]opr{A(eRaw, 0), C(isa.AbsTile(eRaw.tile)), A(eDrv, 0), C(isa.AbsTile(eDrv.tile)), C(eRaw.size), C(0)},
		rd(eRaw), wr(eDrv))
	act := g.maps[pi].Layer.Act
	if act != tensor.ActNone {
		y := g.feat[pi][f]
		g.em.op(k, isa.NDACTFN,
			[]opr{C(isa.ActFnDerivBase + actFnKind(act)), A(y, 0), C(isa.AbsTile(y.tile)), C(eDrv.size), A(eDrv, 0), C(isa.AbsTile(eDrv.tile))},
			rd(y), wr(eDrv))
	}
}
