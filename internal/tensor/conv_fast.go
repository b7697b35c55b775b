package tensor

import "fmt"

// Fast convolution kernels: forward and backward-weights are lowered onto
// the blocked GEMM over a buffer-reused im2col panel; backward-data keeps a
// direct loop (a GEMM lowering would re-associate its per-element sums) with
// hoisted tap bounds. The direct loops in conv.go remain the reference
// oracle.
//
// Determinism: the im2col panel holds exact zeros at padding taps, so the
// GEMM adds a ±0 product exactly where the oracle skips a tap — a bitwise
// identity for finite operands (x + ±0 == x). Per-element contribution order
// is the oracle's (ic,ky,kx) / (oy,ox) program order. Consequence of the
// value-oblivious policy: a NaN/Inf *weight* multiplied by a padding zero
// poisons that output in the fast path where the oracle's geometric skip
// would not — poisoning is never hidden, only (conservatively) amplified.

// ConvScratch is a reusable scratch buffer for the im2col panel. The zero
// value is ready to use; buffers grow geometrically and are retained across
// calls, so steady-state convolution allocates nothing.
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
// into caller-owned dst (Cin·inH·inW elements, overwritten). The loop order
// is the oracle's (oc,oy,ox,ky,kx) program order with the tap-validity
// checks hoisted out of the inner loops. Returns dst.
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
	for i := range gin {
		gin[i] = 0
	}
	gd, wd := gradOut.Data, weights.Data
	for oc := 0; oc < cout; oc++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*p.StrideH - p.PadH
			kyLo, kyHi := 0, p.KH
			if iy0 < 0 {
				kyLo = -iy0
			}
			if iy0+p.KH > inH {
				kyHi = inH - iy0
			}
			if kyLo >= kyHi {
				continue
			}
			for ox := 0; ox < ow; ox++ {
				g := gd[(oc*oh+oy)*ow+ox]
				ix0 := ox*p.StrideW - p.PadW
				kxLo, kxHi := 0, p.KW
				if ix0 < 0 {
					kxLo = -ix0
				}
				if ix0+p.KW > inW {
					kxHi = inW - ix0
				}
				if kxLo >= kxHi {
					continue
				}
				for ic := 0; ic < cin; ic++ {
					for ky := kyLo; ky < kyHi; ky++ {
						grow := gin[(ic*inH+iy0+ky)*inW+ix0+kxLo : (ic*inH+iy0+ky)*inW+ix0+kxHi]
						wrow := wd[((oc*cin+ic)*p.KH+ky)*p.KW+kxLo : ((oc*cin+ic)*p.KH+ky)*p.KW+kxHi]
						for t := range grow {
							grow[t] += g * wrow[t]
						}
					}
				}
			}
		}
	}
	return dst
}

// Conv2DBackwardWeightsInto accumulates the weight gradient of
// Conv2DBackwardWeights into gradW via im2col: gradW[oc,r] gains the dot
// product of gradOut row oc with im2col row r, with the (oy,ox) terms added
// in the oracle's ascending order starting from the existing gradW value.
// scratch may be nil.
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
	ckk := cin * p.KH * p.KW
	kstats.convBwdWgt.count(2 * int64(cout) * int64(ckk) * int64(ohw))
	if scratch == nil {
		scratch = &ConvScratch{}
	}
	cols := Im2colInto(scratch.take(ckk*ohw), input, p)
	gd, wd := gradOut.Data, gradW.Data
	for oc := 0; oc < cout; oc++ {
		grow := gd[oc*ohw : oc*ohw+ohw]
		base := oc * ckk
		r := 0
		for ; r+3 < ckk; r += 4 {
			c0 := cols[r*ohw : r*ohw+ohw]
			c1 := cols[(r+1)*ohw : (r+1)*ohw+ohw]
			c2 := cols[(r+2)*ohw : (r+2)*ohw+ohw]
			c3 := cols[(r+3)*ohw : (r+3)*ohw+ohw]
			a0, a1, a2, a3 := wd[base+r], wd[base+r+1], wd[base+r+2], wd[base+r+3]
			for col, gv := range grow {
				a0 += gv * c0[col]
				a1 += gv * c1[col]
				a2 += gv * c2[col]
				a3 += gv * c3[col]
			}
			wd[base+r], wd[base+r+1], wd[base+r+2], wd[base+r+3] = a0, a1, a2, a3
		}
		for ; r < ckk; r++ {
			crow := cols[r*ohw : r*ohw+ohw]
			acc := wd[base+r]
			for col, gv := range grow {
				acc += gv * crow[col]
			}
			wd[base+r] = acc
		}
	}
}
