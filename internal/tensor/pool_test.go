package tensor

import (
	"math"
	"testing"
)

// pool2D runs Pool2DInto into a fresh output and, for MaxPool, a fresh
// argmax.
func pool2D(in *Tensor, p PoolParams) (*Tensor, []int32) {
	oh, ow := p.OutShape(in.Shape[1], in.Shape[2])
	out := New(in.Shape[0], oh, ow)
	var arg []int32
	if p.Kind == MaxPool {
		arg = make([]int32, out.Len())
	}
	return Pool2DInto(out, in, arg, p), arg
}

// pool2DBackward runs Pool2DBackwardInto into a fresh (C, inH, inW) gradient.
func pool2DBackward(g *Tensor, arg []int32, p PoolParams, inH, inW int) *Tensor {
	return Pool2DBackwardInto(New(g.Shape[0], inH, inW), g, arg, p)
}

func TestMaxPoolKnownValues(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, arg := pool2D(in, PoolParams{Kind: MaxPool, Window: 2, Stride: 2})
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("max[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	if arg[0] != 5 || arg[3] != 15 {
		t.Fatalf("argmax = %v", arg)
	}
}

func TestAvgPoolKnownValues(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, arg := pool2D(in, PoolParams{Kind: AvgPool, Window: 2, Stride: 2})
	if arg != nil {
		t.Fatal("avg pool should not return argmax")
	}
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("avg[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestPoolPerChannelIndependence(t *testing.T) {
	in := New(2, 2, 2)
	Fill(in, 1)
	in.Set3(1, 0, 0, 100)
	out, _ := pool2D(in, PoolParams{Kind: MaxPool, Window: 2, Stride: 2})
	if out.At3(0, 0, 0) != 1 || out.At3(1, 0, 0) != 100 {
		t.Fatalf("channels mixed: %v", out.Data)
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	in := FromSlice([]float32{
		1, 2,
		3, 9,
	}, 1, 2, 2)
	out, arg := pool2D(in, PoolParams{Kind: MaxPool, Window: 2, Stride: 2})
	if out.Data[0] != 9 {
		t.Fatal("bad max")
	}
	g := FromSlice([]float32{5}, 1, 1, 1)
	gin := pool2DBackward(g, arg, PoolParams{Kind: MaxPool, Window: 2, Stride: 2}, 2, 2)
	want := []float32{0, 0, 0, 5}
	for i, v := range want {
		if gin.Data[i] != v {
			t.Fatalf("gin = %v", gin.Data)
		}
	}
}

func TestAvgPoolBackwardSpreadsEvenly(t *testing.T) {
	g := FromSlice([]float32{4}, 1, 1, 1)
	gin := pool2DBackward(g, nil, PoolParams{Kind: AvgPool, Window: 2, Stride: 2}, 2, 2)
	for _, v := range gin.Data {
		if v != 1 {
			t.Fatalf("gin = %v", gin.Data)
		}
	}
}

// Property: max pooling's backward pass conserves the error mass
// (sum(gradIn) == sum(gradOut)) because each output routes to exactly one
// input; avg pooling conserves it too because each window's share sums to
// the window gradient.
func TestPoolBackwardConservesGradientMass(t *testing.T) {
	rng := NewRNG(23)
	for trial := 0; trial < 30; trial++ {
		c := 1 + rng.Intn(3)
		h := 4 + rng.Intn(5)
		kind := MaxPool
		if trial%2 == 1 {
			kind = AvgPool
		}
		p := PoolParams{Kind: kind, Window: 2, Stride: 2}
		in := New(c, h, h)
		rng.FillUniform(in, 1)
		out, arg := pool2D(in, p)
		g := New(out.Shape[0], out.Shape[1], out.Shape[2])
		rng.FillUniform(g, 1)
		gin := pool2DBackward(g, arg, p, h, h)
		if d := Sum(gin) - Sum(g); d > 1e-3 || d < -1e-3 {
			t.Fatalf("trial %d (%v): gradient mass not conserved: %v", trial, kind, d)
		}
	}
}

func TestCeilModePooling(t *testing.T) {
	// When (in-window) does not divide the stride, ceil mode produces one
	// extra (partial-window) output vs floor mode: 6,3,2 → floor 2, ceil 3.
	p := PoolParams{Kind: MaxPool, Window: 3, Stride: 2, Ceiling: true}
	oh, ow := p.OutShape(6, 6)
	if oh != 3 || ow != 3 {
		t.Fatalf("ceil OutShape = %dx%d, want 3x3", oh, ow)
	}
	if fh, _ := (PoolParams{Kind: MaxPool, Window: 3, Stride: 2}).OutShape(6, 6); fh != 2 {
		t.Fatalf("floor OutShape = %d, want 2", fh)
	}
	in := New(1, 6, 6)
	Fill(in, 2)
	out, _ := pool2D(in, p)
	if out.Shape[1] != 3 {
		t.Fatalf("out shape %v", out.Shape)
	}
	for _, v := range out.Data {
		if v != 2 {
			t.Fatalf("ceil-mode pooled value %v", v)
		}
	}
}

// TestPoolIntoOverwritesDst checks that both pool kernels fully overwrite a
// dirty destination: the simulator hands them arena buffers that still hold
// the previous op's values.
func TestPoolIntoOverwritesDst(t *testing.T) {
	rng := NewRNG(29)
	in := New(2, 6, 6)
	rng.FillUniform(in, 1)
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		p := PoolParams{Kind: kind, Window: 2, Stride: 2}
		want, arg := pool2D(in, p)
		got := New(want.Shape...)
		Fill(got, float32(math.NaN()))
		Pool2DInto(got, in, arg, p)
		bitsEqual(t, "Pool2DInto "+kind.String(), got.Data, want.Data)

		g := New(want.Shape...)
		rng.FillUniform(g, 1)
		wantIn := pool2DBackward(g, arg, p, 6, 6)
		gotIn := New(2, 6, 6)
		Fill(gotIn, float32(math.NaN()))
		Pool2DBackwardInto(gotIn, g, arg, p)
		bitsEqual(t, "Pool2DBackwardInto "+kind.String(), gotIn.Data, wantIn.Data)
	}
}
