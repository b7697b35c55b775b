package tensor

import (
	"fmt"
	"testing"
	"time"
)

// Kernel-engine benchmarks: naive reference vs the blocked engine, at the
// GEMM/conv shapes the MiniVGG reference workload actually
// executes (3×16×16 input; conv GEMMs are cout × cin·k² × oh·ow). `make
// bench` writes these as BENCH_tensor.json; each Speedup benchmark reports
// naive-vs-engine wall-clock ratios the same way BenchmarkGridSpeedup does.

// benchGEMMShapes are MiniVGG's two largest conv-as-GEMM shapes plus one
// stacked-minibatch shape (the simulator folds nk kernels into one GEMM).
var benchGEMMShapes = [][3]int{
	{6, 54, 256}, // c1_2: 6 ch × (6·3·3) × 16·16
	{10, 90, 64}, // c2_2: 10 ch × (10·3·3) × 8·8
	{40, 90, 64}, // c2_2 stacked ×4 minibatch
}

func BenchmarkKernelGEMM(b *testing.B) {
	for _, s := range benchGEMMShapes {
		m, k, n := s[0], s[1], s[2]
		rng := NewRNG(1)
		a := New(m, k)
		bb := New(k, n)
		rng.FillUniform(a, 1)
		rng.FillUniform(bb, 1)
		dst := New(m, n)

		b.Run(fmt.Sprintf("naive/%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				naiveMatMul(a, bb)
			}
		})
		b.Run(fmt.Sprintf("blocked/%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bb)
			}
		})
	}
}

// BenchmarkKernelGEMMSpeedup reports the blocked engine's wall-clock
// advantage over the naive serial reference at MiniVGG shapes.
func BenchmarkKernelGEMMSpeedup(b *testing.B) {
	type sized struct{ a, bb, dst *Tensor }
	cases := make([]sized, len(benchGEMMShapes))
	rng := NewRNG(1)
	for i, s := range benchGEMMShapes {
		cases[i] = sized{New(s[0], s[1]), New(s[1], s[2]), New(s[0], s[2])}
		rng.FillUniform(cases[i].a, 1)
		rng.FillUniform(cases[i].bb, 1)
	}
	var naive, engine time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for _, c := range cases {
			naiveMatMul(c.a, c.bb)
		}
		naive += time.Since(t0)
		t0 = time.Now()
		for _, c := range cases {
			MatMulInto(c.dst, c.a, c.bb)
		}
		engine += time.Since(t0)
	}
	b.ReportMetric(naive.Seconds()/engine.Seconds(), "speedup-x")
	b.ReportMetric(naive.Seconds()*1e6/float64(b.N), "naive-us")
	b.ReportMetric(engine.Seconds()*1e6/float64(b.N), "engine-us")
}

// benchConvCases are MiniVGG's two widest conv layers.
var benchConvCases = []convCase{
	{6, 16, 16, 6, 3, 1, 1}, // c1_2
	{10, 8, 8, 10, 3, 1, 1}, // c2_2
}

func BenchmarkKernelConvFwd(b *testing.B) {
	for _, c := range benchConvCases {
		p := ConvParams{KH: c.k, KW: c.k, StrideH: c.stride, StrideW: c.stride, PadH: c.pad, PadW: c.pad}
		rng := NewRNG(2)
		in := New(c.cin, c.h, c.w)
		w := New(c.cout, c.cin, c.k, c.k)
		bias := New(c.cout)
		rng.FillUniform(in, 1)
		rng.FillUniform(w, 1)
		rng.FillUniform(bias, 1)
		oh, ow := p.ConvOutShape(c.h, c.w)
		dst := New(c.cout, oh, ow)
		var scratch ConvScratch
		name := fmt.Sprintf("%dx%dx%d_k%d", c.cin, c.h, c.cout, c.k)

		b.Run("naive/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Conv2D(in, w, bias, p)
			}
		})
		b.Run("blocked/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Conv2DInto(dst, in, w, bias, p, &scratch)
			}
		})
	}
}

// BenchmarkKernelConvSpeedup reports the engine's forward-conv advantage
// over the direct-loop oracle across the MiniVGG layers.
func BenchmarkKernelConvSpeedup(b *testing.B) {
	type prepared struct {
		in, w, bias, dst *Tensor
		p                ConvParams
	}
	cases := make([]prepared, len(benchConvCases))
	rng := NewRNG(2)
	for i, c := range benchConvCases {
		p := ConvParams{KH: c.k, KW: c.k, StrideH: c.stride, StrideW: c.stride, PadH: c.pad, PadW: c.pad}
		oh, ow := p.ConvOutShape(c.h, c.w)
		cases[i] = prepared{New(c.cin, c.h, c.w), New(c.cout, c.cin, c.k, c.k), New(c.cout), New(c.cout, oh, ow), p}
		rng.FillUniform(cases[i].in, 1)
		rng.FillUniform(cases[i].w, 1)
		rng.FillUniform(cases[i].bias, 1)
	}
	var scratch ConvScratch
	var naive, engine time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for _, c := range cases {
			Conv2D(c.in, c.w, c.bias, c.p)
		}
		naive += time.Since(t0)
		t0 = time.Now()
		for _, c := range cases {
			Conv2DInto(c.dst, c.in, c.w, c.bias, c.p, &scratch)
		}
		engine += time.Since(t0)
	}
	b.ReportMetric(naive.Seconds()/engine.Seconds(), "speedup-x")
	b.ReportMetric(naive.Seconds()*1e6/float64(b.N), "naive-us")
	b.ReportMetric(engine.Seconds()*1e6/float64(b.N), "engine-us")
}

// benchSimConvSides are the feature sides of the catalogue's conv layers
// (simnet 12 and 6, minivgg 16 and 8): each NDCONV BP or WG op the
// simulator runs is one such feature, one 3×3 kernel, pad 1.
var benchSimConvSides = []int{6, 8, 12, 16}

// BenchmarkKernelConvBackward times both backward kernels against their
// naive oracles at the executor's c2_2 layer (unprefixed names) and at the
// simulator's one-feature shapes (simN/).
func BenchmarkKernelConvBackward(b *testing.B) {
	benchConvBackward(b, "", benchConvCases[1]) // c2_2
	for _, n := range benchSimConvSides {
		benchConvBackward(b, fmt.Sprintf("sim%d/", n), convCase{1, n, n, 1, 3, 1, 1})
	}
}

func benchConvBackward(b *testing.B, prefix string, c convCase) {
	p := ConvParams{KH: c.k, KW: c.k, StrideH: c.stride, StrideW: c.stride, PadH: c.pad, PadW: c.pad}
	rng := NewRNG(3)
	in := New(c.cin, c.h, c.w)
	w := New(c.cout, c.cin, c.k, c.k)
	rng.FillUniform(in, 1)
	rng.FillUniform(w, 1)
	oh, ow := p.ConvOutShape(c.h, c.w)
	gout := New(c.cout, oh, ow)
	rng.FillUniform(gout, 1)
	gin := New(c.cin, c.h, c.w)
	gw := New(c.cout, c.cin, c.k, c.k)
	var scratch ConvScratch

	b.Run(prefix+"data/naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Conv2DBackwardData(gout, w, p, c.h, c.w)
		}
	})
	b.Run(prefix+"data/engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Conv2DBackwardDataInto(gin, gout, w, p, c.h, c.w)
		}
	})
	b.Run(prefix+"weights/naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gw.Zero()
			Conv2DBackwardWeights(in, gout, gw, p)
		}
	})
	b.Run(prefix+"weights/engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gw.Zero()
			Conv2DBackwardWeightsInto(in, gout, gw, p, &scratch)
		}
	})
}

func BenchmarkKernelMatVec(b *testing.B) {
	rng := NewRNG(4)
	w := New(10, 160) // MiniVGG classifier
	x := New(160)
	bias := New(10)
	rng.FillUniform(w, 1)
	rng.FillUniform(x, 1)
	rng.FillUniform(bias, 1)
	dst := New(10)

	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveMatVec(w, x, bias)
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatVecInto(dst, w, x, bias)
		}
	})
}

// BenchmarkKernelRoundHalfSlice times quantizing a 4096-element slice
// through binary16, as the half-precision simulator does after every
// datapath write: the field-by-field conversion against RoundHalfSlice's
// direct bit path, on uniform values and on values half of which are zero
// at random positions (a ReLU output's share).
func BenchmarkKernelRoundHalfSlice(b *testing.B) {
	rng := NewRNG(5)
	uniform := New(4096)
	rng.FillUniform(uniform, 1)
	halfZeros := uniform.Clone()
	for i := range halfZeros.Data {
		if rng.Intn(2) == 0 {
			halfZeros.Data[i] = 0
		}
	}
	dst := make([]float32, len(uniform.Data))

	for _, in := range []struct {
		name string
		src  *Tensor
	}{{"uniform", uniform}, {"half-zeros", halfZeros}} {
		b.Run("conversion/"+in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(dst, in.src.Data)
				for j, v := range dst {
					dst[j] = FromHalfBits(ToHalfBits(v))
				}
			}
		})
		b.Run("direct/"+in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(dst, in.src.Data)
				RoundHalfSlice(dst)
			}
		})
	}
}
