package sim

import (
	"fmt"
	"math"

	"scaledeep/internal/isa"
	"scaledeep/internal/tensor"
)

// This file implements the functional semantics and timing of the coarse-
// grained, offload and transfer instructions. Functional execution runs on
// the blocked tensor kernel engine (tensor.MatVecInto, tensor.Conv2DInto,
// ...), which is bit-identical to the naive reference, so simulator output
// matches the golden model exactly for identical operation orders (and
// within float tolerance under tracker-permuted accumulation orders).
// Kernel operands, outputs and the tensor headers viewing them are staged in
// the per-op arena and the im2col panel lives in the machine-persistent
// convScratch, so the functional hot loop stays allocation-free.

func (m *Machine) readVec(loc location, addr, size int64) []float32 {
	if loc.mem != nil {
		loc.mem.touch(addr, size)
		if loc.mem.data == nil {
			return nil
		}
		return loc.mem.data[addr : addr+size]
	}
	if !m.Functional {
		return nil
	}
	return loc.ext.span(addr, size)
}

func (m *Machine) writeVec(loc location, addr int64, vals []float32, size int64, acc bool) {
	if loc.mem != nil {
		loc.mem.touch(addr, size)
		if loc.mem.data == nil {
			return
		}
		if acc {
			for i, v := range vals {
				loc.mem.data[addr+int64(i)] += v
			}
		} else {
			copy(loc.mem.data[addr:addr+size], vals)
		}
		if m.half {
			tensor.RoundHalfSlice(loc.mem.data[addr : addr+size])
		}
		return
	}
	if !m.Functional {
		return
	}
	s := loc.ext.span(addr, size)
	if acc {
		for i, v := range vals {
			s[i] += v
		}
	} else {
		copy(s, vals)
	}
	if m.half {
		tensor.RoundHalfSlice(s)
	}
}

// arrayCycles returns the 2D-PE array occupancy for a coarse op of the given
// MAC count: ceil over the array's MACs/cycle plus a pipeline fill/drain of
// one pass through the array diagonal.
func (m *Machine) arrayCycles(macs int64) Cycle {
	per := int64(m.Chip.CompHeavy.MACsPerCycle())
	fill := Cycle(m.Chip.CompHeavy.ArrayRows + m.Chip.CompHeavy.ArrayCols)
	return Cycle((macs+per-1)/per) + fill
}

// sfuCycles returns MemHeavy SFU occupancy for an elementwise op.
func (m *Machine) sfuCycles(elems int64) Cycle {
	per := int64(m.Chip.MemHeavy.NumSFU)
	return Cycle((elems + per - 1) / per)
}

// linkCycles returns transfer duration over a link of the given GB/s.
func (m *Machine) linkCycles(bytes int64, gbps float64) Cycle {
	bpc := gbps * 1e9 / m.FreqHz()
	if bpc <= 0 {
		panic("sim: zero-bandwidth link")
	}
	c := Cycle(math.Ceil(float64(bytes) / bpc))
	if c < 1 {
		c = 1
	}
	return c
}

// FreqHz returns the modeled clock (Fig. 14: 600 MHz).
func (m *Machine) FreqHz() float64 {
	if m.freqHz == 0 {
		return 600e6
	}
	return m.freqHz
}

// SetFreq overrides the clock frequency.
func (m *Machine) SetFreq(hz float64) { m.freqHz = hz }

// execNDConv implements NDCONV
//
//	mode, in, inPort, inH, inW, k, kPort, kSize, stride, pad, out, outPort, nk, acc
//
// In ModeFwd, `in` is one input feature and `k` holds nk consecutive kernels;
// nk partial output features are produced. In ModeBwdData, `in` holds nk
// consecutive output-error features and one input-error feature is
// accumulated. In ModeBwdWeight, `in` is the input feature and `k` holds nk
// error features; nk kernel gradients are accumulated.
func (m *Machine) execNDConv(ct *compTile, v []int64) (bool, Cycle) {
	mode, in, inPort, inH, inW := v[0], v[1], v[2], v[3], v[4]
	kAddr, kPort, kSize, stride, pad := v[5], v[6], v[7], v[8], v[9]
	out, outPort, nk, accFlag := v[10], v[11], v[12], v[13]
	acc := accFlag != 0

	inLoc := m.resolvePort(ct, inPort)
	kLoc := m.resolvePort(ct, kPort)
	outLoc := m.resolvePort(ct, outPort)

	cp := tensor.ConvParams{KH: int(kSize), KW: int(kSize),
		StrideH: int(stride), StrideW: int(stride), PadH: int(pad), PadW: int(pad)}

	var macs, outSize, kTotal int64
	var oh, ow int
	switch mode {
	case isa.ModeFwd:
		oh, ow = cp.ConvOutShape(int(inH), int(inW))
		outSize = nk * int64(oh*ow)
		kTotal = nk * kSize * kSize
		macs = nk * kSize * kSize * int64(oh*ow)
	case isa.ModeBwdData:
		// in = nk error features of inH×inW; out = one input-error feature.
		origH := (inH-1)*stride + kSize - 2*pad
		origW := (inW-1)*stride + kSize - 2*pad
		oh, ow = int(origH), int(origW)
		outSize = int64(oh * ow)
		kTotal = nk * kSize * kSize
		macs = nk * kSize * kSize * inH * inW
	case isa.ModeBwdWeight:
		// in = input feature; k = nk error features of kSize×kSize (kSize
		// reinterpreted as the error side); out = nk kernel gradients.
		errH := kSize
		kern := inH + 2*pad - (errH-1)*stride
		oh, ow = int(kern), int(kern)
		outSize = nk * int64(oh*ow)
		kTotal = nk * errH * errH
		macs = nk * errH * errH * int64(oh*ow)
	default:
		panic(fmt.Sprintf("sim: NDCONV mode %d", mode))
	}

	end := ct.time + m.arrayCycles(macs)
	accs := append(m.accBuf[:0],
		access{loc: inLoc, addr: in, size: inH * inW},
		access{loc: kLoc, addr: kAddr, size: kTotal},
		access{loc: outLoc, addr: out, size: outSize, write: true})
	if mode == isa.ModeBwdData {
		accs[0].size = nk * inH * inW
	}
	if !m.admit(ct, accs, "NDCONV", end) {
		return false, 0
	}
	ct.arrayCycles += end - ct.time
	ct.flops += 2 * macs
	m.addOperandTraffic(ct, accs)

	if m.Functional {
		m.ndconvData(mode, inLoc, in, int(inH), int(inW), kLoc, kAddr, int(kSize),
			cp, outLoc, out, int(nk), oh, ow, acc)
	}
	return true, end
}

// addOperandTraffic attributes a coarse op's operand streaming to the link
// class it actually crosses: external-memory operands (e.g. off-chip
// weights, §3.2.3) hit the external channels; everything else streams over
// the CompHeavy↔MemHeavy links.
func (m *Machine) addOperandTraffic(ct *compTile, accs []access) {
	for _, a := range accs {
		bytes := a.size * m.elemBytes
		if a.loc.ext != nil {
			m.addLinkBytes(ct, linkExt, bytes)
		} else {
			m.addLinkBytes(ct, linkCompMem, bytes)
		}
	}
}

func (m *Machine) ndconvData(mode int64, inLoc location, in int64, inH, inW int,
	kLoc location, kAddr int64, kSize int, cp tensor.ConvParams,
	outLoc location, out int64, nk, oh, ow int, acc bool) {
	a := &m.arena
	switch mode {
	case isa.ModeFwd:
		// All nk kernels are contiguous at kAddr, so one stacked Conv2DInto
		// call produces the nk partial output features: each output channel
		// is an independent GEMM row with the oracle's (ic,ky,kx) tap order,
		// so the stacked call is bit-identical to nk single-kernel Conv2Ds.
		inF := a.tensor(m.copyVec(m.readVec(inLoc, in, int64(inH*inW))), 1, inH, inW)
		kern := a.tensor(m.copyVec(m.readVec(kLoc, kAddr, int64(nk*kSize*kSize))), nk, 1, kSize, kSize)
		o := a.tensor(a.take(nk*oh*ow), nk, oh, ow)
		tensor.Conv2DInto(o, inF, kern, nil, cp, &m.convScratch)
		m.writeVec(outLoc, out, o.Data, int64(nk*oh*ow), acc)
	case isa.ModeBwdData:
		// The per-j decomposition is kept: folding the nk error features
		// into one call would re-associate each input-error element's sum
		// across j, breaking bit-identity with the reference order. Each
		// j's error feature and kernel are staged in the same two buffers.
		res := a.tensor(a.take(oh*ow), 1, oh, ow)
		res.Zero()
		g := a.tensor(a.take(oh*ow), 1, oh, ow)
		errF := a.tensor(a.take(inH*inW), 1, inH, inW)
		kern := a.tensor(a.take(kSize*kSize), 1, 1, kSize, kSize)
		for j := 0; j < nk; j++ {
			copy(errF.Data, m.readVec(inLoc, in+int64(j*inH*inW), int64(inH*inW)))
			copy(kern.Data, m.readVec(kLoc, kAddr+int64(j*kSize*kSize), int64(kSize*kSize)))
			tensor.Conv2DBackwardDataInto(g, errF, kern, cp, oh, ow)
			tensor.Add(res, g)
		}
		m.writeVec(outLoc, out, res.Data, int64(oh*ow), acc)
	case isa.ModeBwdWeight:
		// cp arrived with KH=error side; the tensor reference wants the
		// forward kernel geometry, which is the op's output size here.
		// The nk error features stack as nk independent output channels of
		// one weight-gradient GEMM (gradW row j depends only on error j).
		errH := kSize
		cp.KH, cp.KW = oh, ow
		inF := a.tensor(m.copyVec(m.readVec(inLoc, in, int64(inH*inW))), 1, inH, inW)
		errF := a.tensor(m.copyVec(m.readVec(kLoc, kAddr, int64(nk*errH*errH))), nk, errH, errH)
		gw := a.tensor(a.take(nk*oh*ow), nk, 1, oh, ow)
		gw.Zero()
		tensor.Conv2DBackwardWeightsInto(inF, errF, gw, cp, &m.convScratch)
		m.writeVec(outLoc, out, gw.Data, int64(nk*oh*ow), acc)
	}
}

// copyVec stages a snapshot of v in the per-op scratch arena (fresh memory,
// so transforms never alias the live scratchpad range they read).
func (m *Machine) copyVec(v []float32) []float32 {
	if v == nil {
		return nil
	}
	out := m.arena.take(len(v))
	copy(out, v)
	return out
}

// execMatMul implements MATMUL mode, w, wPort, rows, cols, x, xPort, out, outPort, acc.
// ModeFwd: out(rows) (+)= W(rows×cols)·x(cols). ModeBwdData: out(cols) (+)= Wᵀ·x(rows).
func (m *Machine) execMatMul(ct *compTile, v []int64) (bool, Cycle) {
	mode, w, wPort, rows, cols, x, xPort, out, outPort, accFlag := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9]
	acc := accFlag != 0
	wLoc := m.resolvePort(ct, wPort)
	xLoc := m.resolvePort(ct, xPort)
	outLoc := m.resolvePort(ct, outPort)

	xSize, outSize := cols, rows
	if mode == isa.ModeBwdData {
		xSize, outSize = rows, cols
	}
	macs := rows * cols
	end := ct.time + m.arrayCycles(macs)
	accs := append(m.accBuf[:0],
		access{loc: wLoc, addr: w, size: rows * cols},
		access{loc: xLoc, addr: x, size: xSize},
		access{loc: outLoc, addr: out, size: outSize, write: true})
	if !m.admit(ct, accs, "MATMUL", end) {
		return false, 0
	}
	ct.arrayCycles += end - ct.time
	ct.flops += 2 * macs
	m.addOperandTraffic(ct, accs)

	if m.Functional {
		wT := m.arena.tensor(m.copyVec(m.readVec(wLoc, w, rows*cols)), int(rows), int(cols))
		xT := m.arena.tensor(m.copyVec(m.readVec(xLoc, x, xSize)), int(xSize))
		o := m.arena.tensor(m.arena.take(int(outSize)), int(outSize))
		if mode == isa.ModeFwd {
			tensor.MatVecInto(o, wT, xT, nil)
		} else {
			tensor.MatVecTInto(o, wT, xT)
		}
		m.writeVec(outLoc, out, o.Data, outSize, acc)
	}
	return true, end
}

// execActFn implements NDACTFN kind, src, srcPort, size, dst, dstPort.
// Forward kinds write dst = act(src); derivative kinds multiply dst in place
// by act'(src) where src holds the stored forward output.
func (m *Machine) execActFn(ct *compTile, v []int64) (bool, Cycle) {
	kind, src, srcPort, size, dst, dstPort := v[0], v[1], v[2], v[3], v[4], v[5]
	srcLoc := m.resolvePort(ct, srcPort)
	dstLoc := m.resolvePort(ct, dstPort)
	deriv := kind >= isa.ActFnDerivBase
	ak := actKind(kind)

	end := m.offloadEnd(ct, dstLoc, size)
	accs := append(m.accBuf[:0],
		access{loc: srcLoc, addr: src, size: size},
		access{loc: dstLoc, addr: dst, size: size, write: true})
	if !m.admit(ct, accs, "NDACTFN", end) {
		return false, 0
	}
	m.noteSFU(dstLoc, size, end)

	if m.Functional {
		s := m.copyVec(m.readVec(srcLoc, src, size))
		if deriv {
			d := m.readVec(dstLoc, dst, size)
			vals := m.arena.take(int(size))
			for i := range vals {
				vals[i] = d[i] * ak.Derivative(s[i])
			}
			m.writeVec(dstLoc, dst, vals, size, false)
		} else {
			vals := m.arena.take(int(size))
			for i := range vals {
				vals[i] = ak.Apply(s[i])
			}
			m.writeVec(dstLoc, dst, vals, size, false)
		}
	}
	return true, end
}

func actKind(kind int64) tensor.ActKind {
	k := kind
	if k >= isa.ActFnDerivBase {
		k -= isa.ActFnDerivBase
	}
	switch k {
	case isa.ActFnReLU:
		return tensor.ActReLU
	case isa.ActFnTanh:
		return tensor.ActTanh
	case isa.ActFnSigmoid:
		return tensor.ActSigmoid
	default:
		panic(fmt.Sprintf("sim: NDACTFN kind %d", kind))
	}
}

// offloadEnd computes the completion time of an SFU operation on loc. Time
// spent waiting for an SFU busy with an earlier request is reported as the
// op's contention share.
func (m *Machine) offloadEnd(ct *compTile, loc location, elems int64) Cycle {
	start := ct.time
	if loc.mem != nil && loc.mem.sfuBusy > start {
		start = loc.mem.sfuBusy
	}
	m.opQueueWait = start - ct.time
	return start + m.sfuCycles(elems)
}

func (m *Machine) noteSFU(loc location, elems int64, end Cycle) {
	if loc.mem != nil {
		loc.mem.sfuBusy = end
		loc.mem.sfuCycles += m.sfuCycles(elems)
	}
}

// execSubsamp implements NDSUBSAMP kind, in, inPort, inH, inW, win, stride, pad, out, outPort.
func (m *Machine) execSubsamp(ct *compTile, v []int64) (bool, Cycle) {
	kind, in, inPort, inH, inW, win, stride, pad, out, outPort := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9]
	inLoc := m.resolvePort(ct, inPort)
	outLoc := m.resolvePort(ct, outPort)
	pp := poolParams(kind, win, stride, pad)
	oh, ow := pp.OutShape(int(inH), int(inW))
	outSize := int64(oh * ow)

	end := m.offloadEnd(ct, outLoc, int64(inH*inW))
	accs := append(m.accBuf[:0],
		access{loc: inLoc, addr: in, size: inH * inW},
		access{loc: outLoc, addr: out, size: outSize, write: true})
	if !m.admit(ct, accs, "NDSUBSAMP", end) {
		return false, 0
	}
	m.noteSFU(outLoc, inH*inW, end)

	if m.Functional {
		inF := m.arena.tensor(m.copyVec(m.readVec(inLoc, in, inH*inW)), 1, int(inH), int(inW))
		o, arg := tensor.Pool2D(inF, pp)
		m.writeVec(outLoc, out, o.Data, outSize, false)
		if arg != nil {
			m.poolRoute[routeKey(outLoc, out)] = arg
		}
	}
	return true, end
}

// execUpsamp implements NDUPSAMP kind, gradOut, gPort, inH, inW, win, stride,
// pad, dst, dstPort, fwdOut: the BP of a SAMP layer. inH/inW are the
// *forward input* dims (= dst dims); fwdOut names the forward NDSUBSAMP
// output range whose max-routing is replayed.
func (m *Machine) execUpsamp(ct *compTile, v []int64) (bool, Cycle) {
	kind, g, gPort, inH, inW, win, stride, pad, dst, dstPort, fwdOut := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9], v[10]
	gLoc := m.resolvePort(ct, gPort)
	dstLoc := m.resolvePort(ct, dstPort)
	pp := poolParams(kind, win, stride, pad)
	oh, ow := pp.OutShape(int(inH), int(inW))
	gSize := int64(oh * ow)
	dstSize := inH * inW

	end := m.offloadEnd(ct, dstLoc, dstSize)
	accs := append(m.accBuf[:0],
		access{loc: gLoc, addr: g, size: gSize},
		access{loc: dstLoc, addr: dst, size: dstSize, write: true})
	if !m.admit(ct, accs, "NDUPSAMP", end) {
		return false, 0
	}
	m.noteSFU(dstLoc, dstSize, end)

	if m.Functional {
		gT := m.arena.tensor(m.copyVec(m.readVec(gLoc, g, gSize)), 1, oh, ow)
		var arg []int32
		if pp.Kind == tensor.MaxPool {
			var ok bool
			arg, ok = m.poolRoute[routeKey(gLoc, fwdOut)]
			if !ok {
				panic("sim: NDUPSAMP with no recorded max-pool routing")
			}
		}
		gin := tensor.Pool2DBackward(gT, arg, pp, int(inH), int(inW))
		m.writeVec(dstLoc, dst, gin.Data, dstSize, false)
	}
	return true, end
}

func routeKey(loc location, addr int64) [2]int64 {
	id := int64(-1)
	if loc.mem != nil {
		id = int64(loc.mem.index)
	}
	return [2]int64{id, addr}
}

func poolParams(kind, win, stride, pad int64) tensor.PoolParams {
	pk := tensor.MaxPool
	if kind == isa.SampAvg {
		pk = tensor.AvgPool
	}
	return tensor.PoolParams{Kind: pk, Window: int(win), Stride: int(stride), Pad: int(pad)}
}

// execAcc implements NDACC dst, dstPort, src, srcPort, size: dst += src.
func (m *Machine) execAcc(ct *compTile, v []int64) (bool, Cycle) {
	dst, dstPort, src, srcPort, size := v[0], v[1], v[2], v[3], v[4]
	srcLoc := m.resolvePort(ct, srcPort)
	dstLoc := m.resolvePort(ct, dstPort)
	end := m.offloadEnd(ct, dstLoc, size)
	accs := append(m.accBuf[:0],
		access{loc: srcLoc, addr: src, size: size},
		access{loc: dstLoc, addr: dst, size: size, write: true})
	if !m.admit(ct, accs, "NDACC", end) {
		return false, 0
	}
	m.noteSFU(dstLoc, size, end)
	if m.Functional {
		s := m.copyVec(m.readVec(srcLoc, src, size))
		m.writeVec(dstLoc, dst, s, size, true)
	}
	return true, end
}

// execVecMul implements VECMUL dst, dstPort, g, gPort, gLen, x, xPort, xLen:
// the FC WG outer product dst(gLen×xLen) += g ⊗ x.
func (m *Machine) execVecMul(ct *compTile, v []int64) (bool, Cycle) {
	dst, dstPort, g, gPort, gLen, x, xPort, xLen := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
	gLoc := m.resolvePort(ct, gPort)
	xLoc := m.resolvePort(ct, xPort)
	dstLoc := m.resolvePort(ct, dstPort)
	size := gLen * xLen
	end := m.offloadEnd(ct, dstLoc, size)
	accs := append(m.accBuf[:0],
		access{loc: gLoc, addr: g, size: gLen},
		access{loc: xLoc, addr: x, size: xLen},
		access{loc: dstLoc, addr: dst, size: size, write: true})
	if !m.admit(ct, accs, "VECMUL", end) {
		return false, 0
	}
	m.noteSFU(dstLoc, size, end)
	if m.Functional {
		// The slice written in place is taken last: a later readVec could
		// back new external memory and move it.
		gT := m.arena.tensor(m.copyVec(m.readVec(gLoc, g, gLen)), int(gLen))
		xT := m.arena.tensor(m.copyVec(m.readVec(xLoc, x, xLen)), int(xLen))
		gw := m.arena.tensor(m.readVec(dstLoc, dst, size), int(gLen), int(xLen))
		tensor.OuterAcc(gw, gT, xT)
		if m.half {
			tensor.RoundHalfSlice(gw.Data)
		}
	}
	return true, end
}

// execWUpdate implements WUPDATE w, wPort, dw, dwPort, size, lrScaled:
// w -= (lrScaled / 2^16) · dw — the end-of-minibatch weight update.
func (m *Machine) execWUpdate(ct *compTile, v []int64) (bool, Cycle) {
	w, wPort, dw, dwPort, size, lrScaled := v[0], v[1], v[2], v[3], v[4], v[5]
	wLoc := m.resolvePort(ct, wPort)
	dwLoc := m.resolvePort(ct, dwPort)
	end := m.offloadEnd(ct, wLoc, size)
	// Tracker accesses: one gradient read and one weight write. The write
	// starts the weights' next generation, so the tracker admits it only
	// after every read of the current generation has drained — exactly the
	// ordering the update needs. The in-place read of w is implicit in the
	// write admission and is not counted separately (counting it would
	// self-block: the op's own write is the generation's only update).
	accs := append(m.accBuf[:0],
		access{loc: dwLoc, addr: dw, size: size},            // read gradients
		access{loc: wLoc, addr: w, size: size, write: true}) // write next generation
	if !m.admit(ct, accs, "WUPDATE", end) {
		return false, 0
	}
	m.noteSFU(wLoc, size, end)
	if m.Functional {
		lr := float32(lrScaled) / float32(int64(1)<<isa.WUpdateLRShift)
		gd := m.readVec(dwLoc, dw, size)
		wd := m.readVec(wLoc, w, size) // updated in place: taken last, as in VECMUL
		for i := int64(0); i < size; i++ {
			wd[i] -= lr * gd[i]
		}
		if m.half && wd != nil {
			tensor.RoundHalfSlice(wd)
		}
	}
	return true, end
}

// execMemSet implements MEMSET dst, dstPort, size, bits: fills the range
// with the float32 whose IEEE bits are the low 32 of `bits`.
func (m *Machine) execMemSet(ct *compTile, v []int64) (bool, Cycle) {
	dst, dstPort, size, bits := v[0], v[1], v[2], v[3]
	dstLoc := m.resolvePort(ct, dstPort)
	end := m.offloadEnd(ct, dstLoc, size)
	accs := append(m.accBuf[:0], access{loc: dstLoc, addr: dst, size: size, write: true})
	if !m.admit(ct, accs, "MEMSET", end) {
		return false, 0
	}
	m.noteSFU(dstLoc, size, end)
	if m.Functional {
		val := math.Float32frombits(uint32(bits))
		vals := m.arena.take(int(size))
		for i := range vals {
			vals[i] = val
		}
		m.writeVec(dstLoc, dst, vals, size, false)
	}
	return true, end
}

// execDMA implements DMALOAD/DMASTORE src, srcPort, dst, dstPort, size, acc.
func (m *Machine) execDMA(ct *compTile, v []int64) (bool, Cycle) {
	src, srcPort, dst, dstPort, size, accFlag := v[0], v[1], v[2], v[3], v[4], v[5]
	srcLoc := m.resolvePort(ct, srcPort)
	dstLoc := m.resolvePort(ct, dstPort)
	bytes := size * m.elemBytes

	gbps, class := m.linkFor(srcLoc, dstLoc)
	start := ct.time
	if srcLoc.mem != nil && srcLoc.mem.dmaBusy > start {
		start = srcLoc.mem.dmaBusy
	}
	if dstLoc.mem != nil && dstLoc.mem.dmaBusy > start {
		start = dstLoc.mem.dmaBusy
	}
	if srcLoc.ext != nil && srcLoc.ext.busy > start {
		start = srcLoc.ext.busy
	}
	if dstLoc.ext != nil && dstLoc.ext.busy > start {
		start = dstLoc.ext.busy
	}
	m.opQueueWait = start - ct.time
	end := start + m.linkCycles(bytes, gbps)

	accs := append(m.accBuf[:0],
		access{loc: srcLoc, addr: src, size: size},
		access{loc: dstLoc, addr: dst, size: size, write: true})
	if !m.admit(ct, accs, "DMA", end) {
		return false, 0
	}
	if srcLoc.mem != nil {
		srcLoc.mem.dmaBusy = end
	}
	if dstLoc.mem != nil {
		dstLoc.mem.dmaBusy = end
	}
	if srcLoc.ext != nil {
		srcLoc.ext.busy = end
	}
	if dstLoc.ext != nil {
		dstLoc.ext.busy = end
	}
	m.addLinkBytes(ct, class, bytes)
	ct.dmas++

	if m.Functional {
		s := m.copyVec(m.readVec(srcLoc, src, size))
		m.writeVec(dstLoc, dst, s, size, accFlag != 0)
	}
	return true, end
}

type linkClass int

const (
	linkCompMem linkClass = iota
	linkMemMem
	linkExt
)

// linkFor classifies a transfer and returns the modeled bandwidth.
func (m *Machine) linkFor(a, b location) (float64, linkClass) {
	if a.ext != nil || b.ext != nil {
		return m.Chip.ExtMemGBps, linkExt
	}
	return m.Chip.MemMemGBps, linkMemMem
}

// execPassBuff implements PASSBUFF src, srcPort, sm, size: an explicit
// prefetch of a range into a CompHeavy streaming memory. Functionally the
// array reads operands through its ports at issue; PASSBUFF contributes
// timing and traffic only.
func (m *Machine) execPassBuff(ct *compTile, v []int64) (bool, Cycle) {
	src, srcPort, _, size := v[0], v[1], v[2], v[3]
	srcLoc := m.resolvePort(ct, srcPort)
	bytes := size * m.elemBytes
	end := ct.time + m.linkCycles(bytes, m.Chip.CompMemGBps)
	accs := append(m.accBuf[:0], access{loc: srcLoc, addr: src, size: size})
	if !m.admit(ct, accs, "PASSBUFF", end) {
		return false, 0
	}
	m.addLinkBytes(ct, linkCompMem, bytes)
	return true, end
}
