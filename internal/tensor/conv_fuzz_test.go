package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// im2colBackwardWeights is the backward-weights kernel the row sweep
// replaced, kept verbatim as FuzzConvBackward's oracle: it builds the
// (Cin·KH·KW) × (OH·OW) im2col panel and adds each panel row's dot product
// with the error row into gradW, padding taps included as ±0 products.
func im2colBackwardWeights(input, gradOut, gradW *Tensor, p ConvParams, scratch *ConvScratch) {
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

// fuzzGeometry maps the fuzzer's bytes onto a convolution: cin and cout
// 1–6, h and w 1–16, k 1–5, stride 1–2, pad 0–2. The ranges reach the
// simulator's 12×12 features and every convCases entry, so both seed the
// corpus as themselves. ok is false when the kernel does not fit the padded
// input.
func fuzzGeometry(cin, cout, h, w, k, stride, pad uint8) (c convCase, ok bool) {
	c = convCase{
		cin: 1 + int(cin)%6, cout: 1 + int(cout)%6,
		h: 1 + int(h)%16, w: 1 + int(w)%16,
		k: 1 + int(k)%5, stride: 1 + int(stride)%2, pad: int(pad) % 3,
	}
	return c, c.k <= c.h+2*c.pad && c.k <= c.w+2*c.pad
}

// fuzzOperands are one backward pass's tensors: the forward input, the
// output error, the weights and the starting weight gradient.
type fuzzOperands struct {
	in, gout, w, gw *Tensor
	p               ConvParams
}

// newFuzzOperands fills c's operands, in that order, with the float32 bit
// patterns of data read as little-endian words and repeated as needed
// (zeros when data holds no whole word). NaNs are read as the default NaN
// the hardware's own arithmetic produces: when two NaNs meet in a product
// or a sum, which payload survives depends on the operand order the
// compiler picked for that instruction, not on the kernel's add order.
func newFuzzOperands(c convCase, data []byte) fuzzOperands {
	p := ConvParams{KH: c.k, KW: c.k, StrideH: c.stride, StrideW: c.stride, PadH: c.pad, PadW: c.pad}
	oh, ow := p.ConvOutShape(c.h, c.w)
	o := fuzzOperands{
		in:   New(c.cin, c.h, c.w),
		gout: New(c.cout, oh, ow),
		w:    New(c.cout, c.cin, c.k, c.k),
		gw:   New(c.cout, c.cin, c.k, c.k),
		p:    p,
	}
	words := len(data) / 4
	i := 0
	for _, t := range []*Tensor{o.in, o.gout, o.w, o.gw} {
		for j := range t.Data {
			if words == 0 {
				break
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[4*(i%words):]))
			if v != v {
				v = defaultNaN
			}
			t.Data[j] = v
			i++
		}
	}
	return o
}

// fuzzZero keeps defaultNaN's 0/0 from being folded at compile time.
var fuzzZero float32

// defaultNaN is the NaN this machine's float32 arithmetic generates.
var defaultNaN = fuzzZero / fuzzZero

// fuzzSeedBytes encodes float32 values as newFuzzOperands reads them.
func fuzzSeedBytes(vals []float32) []byte {
	b := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// FuzzConvBackward holds the backward row sweeps to their oracles bit for
// bit: Conv2DBackwardDataInto to the naive Conv2DBackwardData, and
// Conv2DBackwardWeightsInto to the im2col kernel it replaced, over
// fuzzer-picked geometry and raw float32 operands (NaN, ±Inf, ±0 and
// subnormals included). Both fast kernels start from dirty buffers.
func FuzzConvBackward(f *testing.F) {
	add := func(c convCase, vals []float32) {
		f.Add(uint8(c.cin-1), uint8(c.cout-1), uint8(c.h-1), uint8(c.w-1), uint8(c.k-1),
			uint8(c.stride-1), uint8(c.pad), fuzzSeedBytes(vals))
	}
	uniform := func(c convCase, seed uint64) []float32 {
		o := newFuzzOperands(c, nil)
		rng := NewRNG(seed)
		var vals []float32
		for _, t := range []*Tensor{o.in, o.gout, o.w, o.gw} {
			rng.FillUniform(t, 1)
			vals = append(vals, t.Data...)
		}
		return vals
	}
	sim := convCase{1, 12, 12, 1, 3, 1, 1} // one NDCONV BP or WG op
	add(sim, uniform(sim, 1))
	for i, c := range convCases {
		add(c, uniform(c, uint64(i+2)))
	}
	// A NaN error at output (0,0), whose top-left taps are padding: the
	// im2col kernel multiplies it by those zeros, the naive oracle skips
	// them. And a −0 starting gradient, which a +0 padding product turns
	// into +0.
	pad := convCase{1, 4, 4, 1, 3, 1, 1}
	vals := uniform(pad, 3)
	vals[16] = float32(math.NaN())
	add(pad, vals)
	vals = uniform(pad, 4)
	for i := len(vals) - 9; i < len(vals); i++ {
		vals[i] = float32(math.Copysign(0, -1))
	}
	add(pad, vals)
	// A kernel wider than the input: its outer taps reach no input column.
	wide := convCase{1, 1, 1, 1, 5, 1, 2}
	add(wide, uniform(wide, 5))

	f.Fuzz(func(t *testing.T, cin, cout, h, w, k, stride, padding uint8, data []byte) {
		c, ok := fuzzGeometry(cin, cout, h, w, k, stride, padding)
		if !ok {
			return
		}
		o := newFuzzOperands(c, data)
		ctx := fmt.Sprintf("%+v", c)

		want := Conv2DBackwardData(o.gout, o.w, o.p, c.h, c.w)
		got := New(c.cin, c.h, c.w)
		Fill(got, defaultNaN)
		Conv2DBackwardDataInto(got, o.gout, o.w, o.p, c.h, c.w)
		bitsEqual(t, "BackwardData "+ctx, got.Data, want.Data)

		var oracle, scratch ConvScratch
		wantW := o.gw.Clone()
		im2colBackwardWeights(o.in, o.gout, wantW, o.p, &oracle)
		dirty := scratch.take(c.cin * (c.h + 2*c.pad) * (c.w + 2*c.pad))
		for i := range dirty {
			dirty[i] = defaultNaN
		}
		gotW := o.gw.Clone()
		Conv2DBackwardWeightsInto(o.in, o.gout, gotW, o.p, &scratch)
		bitsEqual(t, "BackwardWeights "+ctx, gotW.Data, wantW.Data)
	})
}
