package tensor

import "fmt"

// PoolKind selects the sampling operation of a SAMP layer.
type PoolKind int

const (
	MaxPool PoolKind = iota
	AvgPool
)

func (k PoolKind) String() string {
	switch k {
	case MaxPool:
		return "max"
	case AvgPool:
		return "avg"
	default:
		return fmt.Sprintf("PoolKind(%d)", int(k))
	}
}

// PoolParams describes a SAMP layer window (Rwsize, Rwstride in the
// NDSUBSAMP instruction of Fig. 8).
type PoolParams struct {
	Kind    PoolKind
	Window  int // square window
	Stride  int
	Pad     int  // symmetric zero padding (max treats pad as -inf, avg as absent)
	Ceiling bool // use ceil-mode output size (AlexNet-style overlapping pool)
}

// OutShape returns (OH, OW) for an (h, w) input.
func (p PoolParams) OutShape(h, w int) (int, int) {
	if p.Ceiling {
		return ceilDim(h+2*p.Pad, p.Window, p.Stride), ceilDim(w+2*p.Pad, p.Window, p.Stride)
	}
	return (h+2*p.Pad-p.Window)/p.Stride + 1, (w+2*p.Pad-p.Window)/p.Stride + 1
}

func ceilDim(in, k, s int) int {
	return (in-k+s-1)/s + 1
}

// Pool2DInto down-samples each feature independently (§2.2: SAMP layers
// operate on each feature independently and contain no weights) into
// caller-owned dst (C·OH·OW elements, overwritten). For MaxPool, arg (one
// entry per dst element) receives the argmax indices the backward pass
// routes errors through; AvgPool takes a nil arg. Returns dst.
func Pool2DInto(dst, input *Tensor, arg []int32, p PoolParams) *Tensor {
	c, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	oh, ow := p.OutShape(h, w)
	if dst.Len() != c*oh*ow {
		panic(fmt.Sprintf("tensor: Pool2DInto dst len %d, want %d", dst.Len(), c*oh*ow))
	}
	if p.Kind == MaxPool && len(arg) != dst.Len() {
		panic(fmt.Sprintf("tensor: Pool2DInto argmax len %d, want %d", len(arg), dst.Len()))
	}
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				y0, x0 := oy*p.Stride-p.Pad, ox*p.Stride-p.Pad
				oi := (ch*oh+oy)*ow + ox
				switch p.Kind {
				case MaxPool:
					best := float32(0)
					bi := int32(-1)
					for ky := 0; ky < p.Window; ky++ {
						iy := y0 + ky
						if iy < 0 {
							continue
						}
						if iy >= h {
							break
						}
						for kx := 0; kx < p.Window; kx++ {
							ix := x0 + kx
							if ix < 0 {
								continue
							}
							if ix >= w {
								break
							}
							ii := (ch*h+iy)*w + ix
							if bi < 0 || input.Data[ii] > best {
								best, bi = input.Data[ii], int32(ii)
							}
						}
					}
					dst.Data[oi] = best
					arg[oi] = bi
				case AvgPool:
					var s float32
					n := 0
					for ky := 0; ky < p.Window; ky++ {
						iy := y0 + ky
						if iy < 0 {
							continue
						}
						if iy >= h {
							break
						}
						for kx := 0; kx < p.Window; kx++ {
							ix := x0 + kx
							if ix < 0 {
								continue
							}
							if ix >= w {
								break
							}
							s += input.Data[(ch*h+iy)*w+ix]
							n++
						}
					}
					dst.Data[oi] = s / float32(n)
				}
			}
		}
	}
	return dst
}

// Pool2DBackwardInto up-samples errors through the SAMP layer (the BP step)
// into caller-owned dst, shaped like the forward input (C, inH, inW) and
// overwritten. For MaxPool, arg is the argmax index array from the forward
// pass. Returns dst.
func Pool2DBackwardInto(dst, gradOut *Tensor, arg []int32, p PoolParams) *Tensor {
	c, oh, ow := gradOut.Shape[0], gradOut.Shape[1], gradOut.Shape[2]
	if len(dst.Shape) != 3 || dst.Shape[0] != c {
		panic(fmt.Sprintf("tensor: Pool2DBackwardInto dst shape %v for %d channels", dst.Shape, c))
	}
	inH, inW := dst.Shape[1], dst.Shape[2]
	dst.Zero()
	switch p.Kind {
	case MaxPool:
		for oi, g := range gradOut.Data {
			if arg[oi] >= 0 {
				dst.Data[arg[oi]] += g
			}
		}
	case AvgPool:
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gradOut.Data[(ch*oh+oy)*ow+ox]
					y0, x0 := oy*p.Stride-p.Pad, ox*p.Stride-p.Pad
					n := 0
					for ky := 0; ky < p.Window; ky++ {
						for kx := 0; kx < p.Window; kx++ {
							if y0+ky >= 0 && y0+ky < inH && x0+kx >= 0 && x0+kx < inW {
								n++
							}
						}
					}
					share := g / float32(n)
					for ky := 0; ky < p.Window; ky++ {
						for kx := 0; kx < p.Window; kx++ {
							if y0+ky >= 0 && y0+ky < inH && x0+kx >= 0 && x0+kx < inW {
								dst.Data[(ch*inH+y0+ky)*inW+x0+kx] += share
							}
						}
					}
				}
			}
		}
	}
	return dst
}
