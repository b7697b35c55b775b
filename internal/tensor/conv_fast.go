package tensor

import "fmt"

// Fast convolution kernels. Forward convolution is lowered onto the blocked
// GEMM over a buffer-reused im2col panel. The backward kernels are row
// sweeps: backward-data walks (oc, oy, ic, ky, kx descending, ox), so its
// inner loop runs along a whole error row instead of a kernel row, and
// backward-weights reads its taps from a zero-padded copy of the input and
// accumulates each kernel's taps in one pass over the error map. The direct
// loops in conv.go remain the reference oracle.
//
// Determinism: every output element gains its terms in the oracle's order,
// (ic,ky,kx) for forward, (oc,oy,ox) for backward-data and (oy,ox) for
// backward-weights. Backward-data visits only the taps the oracle visits.
// Forward and backward-weights also add the products of padding taps: the
// im2col panel and the padded copy hold exact zeros there, so they add a ±0
// product exactly where the oracle skips a tap — a bitwise identity for
// finite operands (x + ±0 == x) unless the running sum is −0. Consequence of
// the value-oblivious policy: a NaN/Inf weight (forward) or error
// (backward-weights) multiplied by a padding zero poisons that output where
// the oracle's geometric skip would not — poisoning is never hidden, only
// (conservatively) amplified.

// ConvScratch is a reusable scratch buffer for forward convolution's im2col
// panel and backward-weights' padded input copy. The zero value is ready to
// use; buffers grow geometrically and are retained across calls, so
// steady-state convolution allocates nothing.
type ConvScratch struct {
	buf []float32
}

// take returns a length-n view of the scratch buffer, growing it ≥2× on
// demand. Contents are unspecified.
func (s *ConvScratch) take(n int) []float32 {
	if cap(s.buf) < n {
		c := 2 * cap(s.buf)
		if c < n {
			c = n
		}
		s.buf = make([]float32, c)
	}
	return s.buf[:n]
}

// Im2colInto unrolls a (Cin, H, W) input into dst as a (Cin·KH·KW, OH·OW)
// row-major matrix whose columns are the receptive fields of each output
// position; padding taps are exact zeros. dst must hold Cin·KH·KW·OH·OW
// elements; it is fully overwritten. Returns dst.
func Im2colInto(dst []float32, input *Tensor, p ConvParams) []float32 {
	cin, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	oh, ow := p.ConvOutShape(h, w)
	rows := cin * p.KH * p.KW
	cols := oh * ow
	if len(dst) != rows*cols {
		panic(fmt.Sprintf("tensor: Im2colInto dst len %d, want %d", len(dst), rows*cols))
	}
	kstats.im2col.count(0)
	for i := range dst {
		dst[i] = 0
	}
	for ic := 0; ic < cin; ic++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				r := (ic*p.KH+ky)*p.KW + kx
				d := dst[r*cols : r*cols+cols]
				for oy := 0; oy < oh; oy++ {
					iy := oy*p.StrideH - p.PadH + ky
					if iy < 0 || iy >= h {
						continue // row stays zero
					}
					srcRow := (ic*h + iy) * w
					drow := d[oy*ow : oy*ow+ow]
					if p.StrideW == 1 {
						// Contiguous span: clip [kx-PadW, kx-PadW+ow) to the
						// input row and copy it in one go.
						ix0 := kx - p.PadW
						lo, hi := 0, ow
						if ix0 < 0 {
							lo = -ix0
						}
						if ix0+ow > w {
							hi = w - ix0
						}
						if lo < hi {
							copy(drow[lo:hi], input.Data[srcRow+ix0+lo:srcRow+ix0+hi])
						}
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*p.StrideW - p.PadW + kx
						if ix < 0 || ix >= w {
							continue
						}
						drow[ox] = input.Data[srcRow+ix]
					}
				}
			}
		}
	}
	return dst
}

// Conv2DInto computes the forward convolution of Conv2D into caller-owned
// dst (Cout·OH·OW elements, overwritten) via im2col + blocked GEMM, with the
// bias seeded into dst first so the accumulation order matches the oracle's
// `acc := bias` start. scratch may be nil (a temporary panel is allocated).
// Returns dst.
func Conv2DInto(dst, input, weights, bias *Tensor, p ConvParams, scratch *ConvScratch) *Tensor {
	cin, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	cout := weights.Shape[0]
	if weights.Shape[1] != cin || weights.Shape[2] != p.KH || weights.Shape[3] != p.KW {
		panic(fmt.Sprintf("tensor: Conv2DInto weight shape %v incompatible with input %v params %+v",
			weights.Shape, input.Shape, p))
	}
	oh, ow := p.ConvOutShape(h, w)
	ohw := oh * ow
	ckk := cin * p.KH * p.KW
	if dst.Len() != cout*ohw {
		panic(fmt.Sprintf("tensor: Conv2DInto dst len %d, want %d", dst.Len(), cout*ohw))
	}
	kstats.convFwd.count(2 * int64(cout) * int64(ckk) * int64(ohw))
	if scratch == nil {
		scratch = &ConvScratch{}
	}
	cols := Im2colInto(scratch.take(ckk*ohw), input, p)
	out := dst.Data[:cout*ohw]
	if bias == nil {
		for i := range out {
			out[i] = 0
		}
	} else {
		for oc := 0; oc < cout; oc++ {
			b := bias.Data[oc]
			row := out[oc*ohw : oc*ohw+ohw]
			for i := range row {
				row[i] = b
			}
		}
	}
	gemmAcc(out, weights.Data, cols, cout, ckk, ohw)
	return dst
}

// Conv2DBackwardDataInto computes the input gradient of Conv2DBackwardData
// into caller-owned dst (Cin·inH·inW elements, overwritten). For one error
// row and one kernel tap, its inner loop adds the error row, scaled by the
// tap, along a gradient row. The walk is (oc, oy, ic, ky, kx descending,
// ox): within one (oc, oy, ky) a larger ox reaches a given gradient element
// through a smaller kx, so every element gains its terms in the oracle's
// (oc, oy, ox) order. Returns dst.
func Conv2DBackwardDataInto(dst, gradOut, weights *Tensor, p ConvParams, inH, inW int) *Tensor {
	cout, oh, ow := gradOut.Shape[0], gradOut.Shape[1], gradOut.Shape[2]
	cin := weights.Shape[1]
	if weights.Shape[0] != cout {
		panic("tensor: Conv2DBackwardDataInto cout mismatch")
	}
	if dst.Len() != cin*inH*inW {
		panic(fmt.Sprintf("tensor: Conv2DBackwardDataInto dst len %d, want %d", dst.Len(), cin*inH*inW))
	}
	kstats.convBwdDat.count(2 * int64(cout) * int64(oh) * int64(ow) * int64(cin) * int64(p.KH) * int64(p.KW))
	gin := dst.Data[:cin*inH*inW]
	clear(gin)
	gd, wd := gradOut.Data, weights.Data
	for oc := 0; oc < cout; oc++ {
		for oy := 0; oy < oh; oy++ {
			erow := gd[(oc*oh+oy)*ow : (oc*oh+oy)*ow+ow]
			iy0 := oy*p.StrideH - p.PadH
			kyLo, kyHi := max(0, -iy0), min(p.KH, inH-iy0)
			for ic := 0; ic < cin; ic++ {
				for ky := kyLo; ky < kyHi; ky++ {
					grow := gin[(ic*inH+iy0+ky)*inW : (ic*inH+iy0+ky+1)*inW]
					wrow := wd[((oc*cin+ic)*p.KH+ky)*p.KW : ((oc*cin+ic)*p.KH+ky+1)*p.KW]
					bwdDataRow(grow, erow, wrow, p.PadW, p.StrideW)
				}
			}
		}
	}
	return dst
}

// bwdDataRow adds one error row through one kernel row into one gradient
// row: for each tap kx, descending, the error row scaled by the tap lands
// on the gradient columns ox·sw + kx − padW.
func bwdDataRow(grow, erow, wrow []float32, padW, sw int) {
	for kx := len(wrow) - 1; kx >= 0; kx-- {
		ix0 := kx - padW
		lo, hi := tapSpan(ix0, sw, len(erow), len(grow))
		if lo == hi {
			continue
		}
		wv := wrow[kx]
		if sw == 1 {
			e := erow[lo:hi]
			g := grow[lo+ix0:][:len(e)]
			for i, ev := range e {
				g[i] += ev * wv
			}
			continue
		}
		for ox := lo; ox < hi; ox++ {
			grow[ox*sw+ix0] += erow[ox] * wv
		}
	}
}

// tapSpan returns the error columns [lo, hi) whose tap lands inside a
// gradient row of width inW: 0 <= ox·s + ix0 < inW and 0 <= ox < ow, or
// lo == hi when no column does. Stride 1 needs no division.
func tapSpan(ix0, s, ow, inW int) (lo, hi int) {
	switch {
	case ix0 >= inW:
		return 0, 0
	case s == 1:
		lo, hi = max(0, -ix0), min(ow, inW-ix0)
	default:
		lo, hi = max(0, (-ix0+s-1)/s), min(ow, (inW-1-ix0)/s+1)
	}
	return lo, max(lo, hi)
}

// Conv2DBackwardWeightsInto accumulates the weight gradient of
// Conv2DBackwardWeights into gradW. Taps are read from a zero-padded copy
// of the input (built in scratch; the input itself when p has no padding),
// and each (oc, ic) kernel's taps start from their gradW values and gain
// the (oy, ox) terms in ascending order, padding taps included as ±0
// products. Stride-1 3×3 kernels, the only shape the catalogue's networks
// train, carry their nine taps in registers through one pass over the error
// map; other geometries sweep the error map once per tap. scratch may be
// nil.
func Conv2DBackwardWeightsInto(input, gradOut, gradW *Tensor, p ConvParams, scratch *ConvScratch) {
	cin, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	cout, oh, ow := gradOut.Shape[0], gradOut.Shape[1], gradOut.Shape[2]
	if gradW.Shape[0] != cout || gradW.Shape[1] != cin || gradW.Shape[2] != p.KH || gradW.Shape[3] != p.KW {
		panic("tensor: Conv2DBackwardWeightsInto shape mismatch")
	}
	if oh2, ow2 := p.ConvOutShape(h, w); oh2 != oh || ow2 != ow {
		panic("tensor: Conv2DBackwardWeightsInto gradOut spatial shape mismatch")
	}
	ohw := oh * ow
	kk := p.KH * p.KW
	kstats.convBwdWgt.count(2 * int64(cout) * int64(cin*kk) * int64(ohw))
	if scratch == nil {
		scratch = &ConvScratch{}
	}
	x := scratch.padded(input, p)
	pw := w + 2*p.PadW
	fsize := (h + 2*p.PadH) * pw
	gd, wd := gradOut.Data, gradW.Data
	for oc := 0; oc < cout; oc++ {
		e := gd[oc*ohw : oc*ohw+ohw]
		for ic := 0; ic < cin; ic++ {
			k := wd[(oc*cin+ic)*kk : (oc*cin+ic+1)*kk]
			f := x[ic*fsize : (ic+1)*fsize]
			if p.KH == 3 && p.KW == 3 && p.StrideH == 1 && p.StrideW == 1 {
				wgrad3x3(k, e, f, ow, pw)
			} else {
				wgradTaps(k, e, f, ow, pw, p)
			}
		}
	}
}

// padded returns input's features, each surrounded by p's zero padding:
// Cin × (H+2·PadH) × (W+2·PadW) elements in the scratch buffer, or
// input.Data itself when p has no padding.
func (s *ConvScratch) padded(input *Tensor, p ConvParams) []float32 {
	cin, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	if p.PadH == 0 && p.PadW == 0 {
		return input.Data[:cin*h*w]
	}
	ph, pw := h+2*p.PadH, w+2*p.PadW
	buf := s.take(cin * ph * pw)
	clear(buf)
	for ic := 0; ic < cin; ic++ {
		for y := 0; y < h; y++ {
			copy(buf[(ic*ph+p.PadH+y)*pw+p.PadW:], input.Data[(ic*h+y)*w:(ic*h+y+1)*w])
		}
	}
	return buf
}

// wgrad3x3 accumulates one stride-1 3×3 kernel's gradient k: each tap
// gains, over the error map e (rows of ow) in (oy, ox) order, the error
// times the tap under it in the padded feature f (rows of pw). Rows are cut
// to their exact lengths, so the inner loop runs without bounds checks.
func wgrad3x3(k, e, f []float32, ow, pw int) {
	k = k[:9]
	a0, a1, a2, a3, a4, a5, a6, a7, a8 := k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]
	for y := 0; len(e) > 0; y++ {
		erow := e[:ow]
		e = e[ow:]
		r0 := f[y*pw:][:ow+2]
		r1 := f[(y+1)*pw:][:ow+2]
		r2 := f[(y+2)*pw:][:ow+2]
		for ox, g := range erow {
			a0 += g * r0[ox]
			a1 += g * r0[ox+1]
			a2 += g * r0[ox+2]
			a3 += g * r1[ox]
			a4 += g * r1[ox+1]
			a5 += g * r1[ox+2]
			a6 += g * r2[ox]
			a7 += g * r2[ox+1]
			a8 += g * r2[ox+2]
		}
	}
	k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8] = a0, a1, a2, a3, a4, a5, a6, a7, a8
}

// wgradTaps is wgrad3x3 for any kernel shape and stride: each tap sweeps the
// error map row by row with its sum in one register.
func wgradTaps(k, e, f []float32, ow, pw int, p ConvParams) {
	oh := len(e) / ow
	for ky := 0; ky < p.KH; ky++ {
		for kx := 0; kx < p.KW; kx++ {
			acc := k[ky*p.KW+kx]
			for oy := 0; oy < oh; oy++ {
				erow := e[oy*ow : oy*ow+ow]
				xrow := f[(oy*p.StrideH+ky)*pw+kx:]
				if p.StrideW == 1 {
					xrow = xrow[:len(erow)]
					for ox, g := range erow {
						acc += g * xrow[ox]
					}
					continue
				}
				for ox, g := range erow {
					acc += g * xrow[ox*p.StrideW]
				}
			}
			k[ky*p.KW+kx] = acc
		}
	}
}
