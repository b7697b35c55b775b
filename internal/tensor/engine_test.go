package tensor

import (
	"fmt"
	"math"
	"testing"
)

// bitsEqual fails unless a and b match element-for-element in their IEEE
// bit patterns (so +0 vs -0 and differing NaN payloads fail too — the
// determinism contract is bit-identity, not numeric closeness).
func bitsEqual(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d: got %v (bits %08x), want %v (bits %08x)",
				ctx, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestMatMulIntoBitwiseMatchesNaive sweeps a shape grid (including odd and
// degenerate sizes, and k/n spanning the blocking boundaries) and requires
// exact bit equality with the naive reference.
func TestMatMulIntoBitwiseMatchesNaive(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 3}, {3, 1, 5}, {2, 3, 2}, {5, 5, 5},
		{6, 54, 256}, {10, 90, 64}, // MiniVGG conv GEMM shapes
		{7, 241, 13}, {3, 244, 17}, // k just past / at the unroll tail
		{4, 16, 513}, {2, 500, 530}, // n past the packing boundary
		{33, 31, 29},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		rng := NewRNG(uint64(m*1000 + k*10 + n))
		a := New(m, k)
		b := New(k, n)
		rng.FillUniform(a, 1)
		rng.FillUniform(b, 1)
		want := naiveMatMul(a, b)
		got := MatMulInto(New(m, n), a, b)
		bitsEqual(t, fmt.Sprintf("MatMul %dx%dx%d", m, k, n), got.Data, want.Data)
	}
}

// TestMatVecKernelsBitwiseMatchNaive covers MatVecInto (with and without
// bias), MatVecTInto and OuterAccInto (accumulating onto a non-zero start)
// across odd shapes.
func TestMatVecKernelsBitwiseMatchNaive(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 9}, {3, 7}, {4, 4}, {5, 160}, {10, 160}, {13, 33}, {64, 17}, {129, 65}}
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		rng := NewRNG(uint64(rows*100 + cols))
		w := New(rows, cols)
		x := New(cols)
		g := New(rows)
		bias := New(rows)
		rng.FillUniform(w, 1)
		rng.FillUniform(x, 1)
		rng.FillUniform(g, 1)
		rng.FillUniform(bias, 1)
		seed := New(rows, cols)
		rng.FillUniform(seed, 1)

		wantMV := naiveMatVec(w, x, nil)
		wantMVB := naiveMatVec(w, x, bias)
		wantMVT := naiveMatVecT(w, g)
		wantOuter := seed.Clone()
		naiveOuterAcc(wantOuter, g, x)

		ctx := fmt.Sprintf("%dx%d", rows, cols)
		bitsEqual(t, "MatVec "+ctx, MatVecInto(New(rows), w, x, nil).Data, wantMV.Data)
		bitsEqual(t, "MatVec+bias "+ctx, MatVecInto(New(rows), w, x, bias).Data, wantMVB.Data)
		bitsEqual(t, "MatVecT "+ctx, MatVecTInto(New(cols), w, g).Data, wantMVT.Data)
		got := seed.Clone()
		OuterAccInto(got, g, x)
		bitsEqual(t, "OuterAcc "+ctx, got.Data, wantOuter.Data)
	}
}

// convCase is one geometry of the convolution shape grid.
type convCase struct {
	cin, h, w, cout, k, stride, pad int
}

var convCases = []convCase{
	{1, 1, 1, 1, 1, 1, 0},
	{1, 5, 5, 1, 3, 1, 1},
	{2, 7, 5, 3, 3, 1, 1},   // odd, non-square
	{3, 9, 9, 4, 3, 2, 1},   // strided
	{2, 6, 6, 3, 5, 1, 2},   // big kernel, wide pad
	{3, 8, 8, 5, 3, 2, 0},   // strided, no pad
	{4, 11, 7, 2, 1, 1, 0},  // 1x1
	{3, 16, 16, 6, 3, 1, 1}, // MiniVGG block-1 shape
}

// TestConv2DIntoBitwiseMatchesOracle checks the im2col+GEMM forward path
// against the Conv2D direct-loop oracle, with and without bias, across the
// shape grid, with a shared scratch reused between calls.
func TestConv2DIntoBitwiseMatchesOracle(t *testing.T) {
	var scratch ConvScratch
	for _, c := range convCases {
		p := ConvParams{KH: c.k, KW: c.k, StrideH: c.stride, StrideW: c.stride, PadH: c.pad, PadW: c.pad}
		rng := NewRNG(uint64(c.cin*1000 + c.h*100 + c.cout*10 + c.k))
		in := New(c.cin, c.h, c.w)
		w := New(c.cout, c.cin, c.k, c.k)
		bias := New(c.cout)
		rng.FillUniform(in, 1)
		rng.FillUniform(w, 1)
		rng.FillUniform(bias, 1)
		oh, ow := p.ConvOutShape(c.h, c.w)

		for _, b := range []*Tensor{nil, bias} {
			want := Conv2D(in, w, b, p)
			got := Conv2DInto(New(c.cout, oh, ow), in, w, b, p, &scratch)
			bitsEqual(t, fmt.Sprintf("Conv2DInto %+v bias=%v", c, b != nil), got.Data, want.Data)
		}
	}
}

// TestConvBackwardIntoBitwiseMatchesOracle checks the fast backward-data and
// backward-weights kernels against the direct-loop oracles (backward-weights
// accumulating onto a non-zero start) across the shape grid.
func TestConvBackwardIntoBitwiseMatchesOracle(t *testing.T) {
	var scratch ConvScratch
	for _, c := range convCases {
		p := ConvParams{KH: c.k, KW: c.k, StrideH: c.stride, StrideW: c.stride, PadH: c.pad, PadW: c.pad}
		rng := NewRNG(uint64(c.cin*999 + c.h*99 + c.cout*9 + c.k))
		in := New(c.cin, c.h, c.w)
		w := New(c.cout, c.cin, c.k, c.k)
		rng.FillUniform(in, 1)
		rng.FillUniform(w, 1)
		oh, ow := p.ConvOutShape(c.h, c.w)
		gout := New(c.cout, oh, ow)
		rng.FillUniform(gout, 1)
		seed := New(c.cout, c.cin, c.k, c.k)
		rng.FillUniform(seed, 1)

		wantData := Conv2DBackwardData(gout, w, p, c.h, c.w)
		wantW := seed.Clone()
		Conv2DBackwardWeights(in, gout, wantW, p)

		ctx := fmt.Sprintf("%+v", c)
		gotData := Conv2DBackwardDataInto(New(c.cin, c.h, c.w), gout, w, p, c.h, c.w)
		bitsEqual(t, "BackwardData "+ctx, gotData.Data, wantData.Data)
		gotW := seed.Clone()
		Conv2DBackwardWeightsInto(in, gout, gotW, p, &scratch)
		bitsEqual(t, "BackwardWeights "+ctx, gotW.Data, wantW.Data)
	}
}

// TestZeroSkipRegressionNaNPropagates is the regression test for the removed
// `v == 0` fast paths: a NaN anywhere in one operand must reach the output
// even when the matching factor in the other operand is zero, in every
// kernel that used to skip zero values (MatMul, MatVecT, OuterAcc) and in
// the conv backward oracles.
func TestZeroSkipRegressionNaNPropagates(t *testing.T) {
	nan := float32(math.NaN())

	// MatMul: A holds a zero exactly where B's row is NaN.
	a := FromSlice([]float32{0, 1}, 1, 2)
	b := FromSlice([]float32{nan, nan, 2, 3}, 2, 2)
	for i, v := range MatMul(a, b).Data {
		if !math.IsNaN(float64(v)) {
			t.Errorf("MatMul: 0·NaN dropped at %d: got %v", i, v)
		}
	}

	// MatVecT: g is all zeros, W holds a NaN — 0·NaN must poison out.
	w := FromSlice([]float32{nan, 1, 2, 3}, 2, 2)
	g := FromSlice([]float32{0, 0}, 2)
	if out := MatVecT(w, g); !math.IsNaN(float64(out.Data[0])) {
		t.Errorf("MatVecT: 0·NaN dropped: got %v", out.Data)
	}

	// OuterAcc: zero g row times NaN x.
	gradW := New(2, 2)
	x := FromSlice([]float32{nan, 1}, 2)
	OuterAcc(gradW, g, x)
	if !math.IsNaN(float64(gradW.Data[0])) {
		t.Errorf("OuterAcc: 0·NaN dropped: got %v", gradW.Data)
	}

	// Conv backward oracles: a zero output error over NaN weights/input.
	p := ConvParams{KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	gz := New(1, 2, 2) // all-zero error
	wn := FromSlice([]float32{nan}, 1, 1, 1, 1)
	if gin := Conv2DBackwardData(gz, wn, p, 2, 2); !math.IsNaN(float64(gin.Data[0])) {
		t.Errorf("Conv2DBackwardData: 0·NaN dropped: got %v", gin.Data)
	}
	inn := FromSlice([]float32{nan, nan, nan, nan}, 1, 2, 2)
	gw := New(1, 1, 1, 1)
	Conv2DBackwardWeights(inn, gz, gw, p)
	if !math.IsNaN(float64(gw.Data[0])) {
		t.Errorf("Conv2DBackwardWeights: 0·NaN dropped: got %v", gw.Data)
	}
}

// TestSoftmaxAndActivationIntoVariants checks the Into variants against the
// allocating versions, including the documented aliasing cases.
func TestSoftmaxAndActivationIntoVariants(t *testing.T) {
	rng := NewRNG(11)
	x := New(17)
	rng.FillUniform(x, 3)

	want := Softmax(x)
	got := SoftmaxInto(New(17), x)
	bitsEqual(t, "SoftmaxInto", got.Data, want.Data)
	alias := x.Clone()
	SoftmaxInto(alias, alias)
	bitsEqual(t, "SoftmaxInto aliased", alias.Data, want.Data)

	wantG := SoftmaxCrossEntropyGrad(want, 5)
	gotG := SoftmaxCrossEntropyGradInto(New(17), want, 5)
	bitsEqual(t, "SoftmaxCrossEntropyGradInto", gotG.Data, wantG.Data)

	for _, k := range []ActKind{ActNone, ActReLU, ActTanh, ActSigmoid} {
		wantA := Activate(x, k)
		aliasA := x.Clone()
		ActivateInto(aliasA, aliasA, k)
		bitsEqual(t, "ActivateInto "+k.String(), aliasA.Data, wantA.Data)

		gr := New(17)
		rng.FillUniform(gr, 1)
		wantB := ActivateBackward(gr, wantA, k)
		aliasB := gr.Clone()
		ActivateBackwardInto(aliasB, aliasB, wantA, k)
		bitsEqual(t, "ActivateBackwardInto "+k.String(), aliasB.Data, wantB.Data)
	}
}

// TestIm2colIntoMatchesIm2col pins the buffer-reusing panel builder to the
// allocating wrapper (same matrix, including zero padding rows) and checks
// that a dirty reused buffer is fully overwritten.
func TestIm2colIntoMatchesIm2col(t *testing.T) {
	p := ConvParams{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	rng := NewRNG(5)
	in := New(3, 9, 7)
	rng.FillUniform(in, 1)
	want := Im2col(in, p)
	dirty := make([]float32, want.Len())
	for i := range dirty {
		dirty[i] = float32(math.NaN())
	}
	got := Im2colInto(dirty, in, p)
	bitsEqual(t, "Im2colInto over dirty buffer", got, want.Data)
}

// TestKernelStatsCount checks that kernel calls land in the stats snapshot.
func TestKernelStatsCount(t *testing.T) {
	ResetKernelStats()
	a := New(2, 3)
	b := New(3, 4)
	MatMul(a, b)
	st := KernelStats()
	if st["tensor.kernel.matmul.calls"] != 1 {
		t.Errorf("matmul calls = %d, want 1", st["tensor.kernel.matmul.calls"])
	}
	if want := int64(2 * 2 * 3 * 4); st["tensor.kernel.matmul.flops"] != want {
		t.Errorf("matmul flops = %d, want %d", st["tensor.kernel.matmul.flops"], want)
	}
	ResetKernelStats()
	if st := KernelStats(); st["tensor.kernel.matmul.calls"] != 0 {
		t.Errorf("reset left matmul calls = %d", st["tensor.kernel.matmul.calls"])
	}
}
