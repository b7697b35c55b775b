package tensor

import (
	"fmt"
	"sync"
)

// Kernel engine: cache-blocked, panel-packed float32 kernels with
// destination-passing (`Into`) entry points that reuse caller-owned buffers.
//
// Determinism contract (DESIGN.md, "Kernel engine"): every kernel produces
// output bit-identical to the naive serial reference. The rules that make
// this hold:
//
//   - Per output element, contributions are accumulated in exactly the naive
//     order (k ascending for GEMM, (oc,oy,ox,ky,kx) program order for the
//     convolutions) with one sequential chain of dependent adds — never
//     pre-summed into temporaries, never re-associated.
//   - Blocking over output rows/columns and over the k dimension only
//     regroups *loop traversal*; the per-element add chain is unchanged.
//   - Panel packing copies operand values exactly (no conversion), so packed
//     and unpacked paths multiply the same bits.
//   - Kernels are value-oblivious: no data-dependent skips. (The old
//     `v == 0 { continue }` fast paths silently dropped 0·NaN/0·Inf
//     contributions and could hide NaN poisoning from the functional
//     crosschecks.)

// Blocking parameters. kBlock is a multiple of the k-unroll so full blocks
// take the unrolled path end-to-end; nBlock bounds the packed B panel so a
// (kBlock × nBlock) panel stays L2-resident.
const (
	gemmKBlock = 240
	gemmNBlock = 512
)

// packPool recycles B-panel pack buffers across GEMM calls.
var packPool = sync.Pool{New: func() any { return new([]float32) }}

// MatMulInto computes dst = A·B for A (m,k), B (k,n) into caller-owned dst,
// which must hold m·n elements; dst's previous contents are overwritten.
// It returns dst. The kernel is blocked over k (so each output element is
// revisited few times) and packs B panels when n spans multiple column
// blocks.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInto A%v B%v", a.Shape, b.Shape))
	}
	if dst.Len() != m*n {
		panic(fmt.Sprintf("tensor: MatMulInto dst len %d, want %d", dst.Len(), m*n))
	}
	kstats.matmul.count(2 * int64(m) * int64(k) * int64(n))
	c := dst.Data[:m*n]
	for i := range c {
		c[i] = 0
	}
	gemmAcc(c, a.Data, b.Data, m, k, n)
	return dst
}

// gemmAcc accumulates C += A·B for A (m,k), B (k,n). C must hold the desired
// starting values (zeros for a plain product, the bias for a seeded conv).
// Per element C[i,j] the contribution order is p ascending — k-blocking and
// the 2×4 microkernel only change how many times the C row is traversed.
func gemmAcc(c, a, b []float32, m, k, n int) {
	var packBuf []float32
	packed := n > gemmNBlock
	if packed {
		bp := packPool.Get().(*[]float32)
		if cap(*bp) < gemmKBlock*gemmNBlock {
			*bp = make([]float32, gemmKBlock*gemmNBlock)
		}
		packBuf = (*bp)[:gemmKBlock*gemmNBlock]
		defer packPool.Put(bp)
	}
	for j0 := 0; j0 < n; j0 += gemmNBlock {
		j1 := j0 + gemmNBlock
		if j1 > n {
			j1 = n
		}
		jb := j1 - j0
		for p0 := 0; p0 < k; p0 += gemmKBlock {
			p1 := p0 + gemmKBlock
			if p1 > k {
				p1 = k
			}
			// Panel source: either B itself (single column block) or an
			// exact copy of B[p0:p1, j0:j1] packed contiguously so the
			// inner loops stream it with unit stride.
			panel := b
			pStride, pOff := n, j0
			if packed {
				for p := p0; p < p1; p++ {
					copy(packBuf[(p-p0)*jb:(p-p0)*jb+jb], b[p*n+j0:p*n+j1])
				}
				panel = packBuf
				pStride, pOff = jb, -p0*jb
			}
			for i := 0; i+1 < m; i += 2 {
				gemm2x4(c[i*n+j0:i*n+j1], c[(i+1)*n+j0:(i+1)*n+j1],
					a[i*k:i*k+k], a[(i+1)*k:(i+1)*k+k],
					panel, pStride, pOff, p0, p1)
			}
			if m%2 != 0 {
				i := m - 1
				gemm1x4(c[i*n+j0:i*n+j1], a[i*k:i*k+k], panel, pStride, pOff, p0, p1)
			}
		}
	}
}

// gemm2x4 accumulates two C rows against a shared B panel, unrolling k by 4.
// Each C element keeps one sequential add chain (s += a·b four times), so the
// per-element order is exactly p ascending; the two rows give independent
// chains for ILP and share the four loaded B rows.
func gemm2x4(c0, c1, a0, a1, b []float32, stride, off, p0, p1 int) {
	c1 = c1[:len(c0)]
	p := p0
	for ; p+3 < p1; p += 4 {
		a00, a01, a02, a03 := a0[p], a0[p+1], a0[p+2], a0[p+3]
		a10, a11, a12, a13 := a1[p], a1[p+1], a1[p+2], a1[p+3]
		r0 := b[p*stride+off : p*stride+off+len(c0)]
		r1 := b[(p+1)*stride+off : (p+1)*stride+off+len(c0)]
		r2 := b[(p+2)*stride+off : (p+2)*stride+off+len(c0)]
		r3 := b[(p+3)*stride+off : (p+3)*stride+off+len(c0)]
		for j := range c0 {
			b0, b1v, b2, b3 := r0[j], r1[j], r2[j], r3[j]
			s0 := c0[j]
			s0 += a00 * b0
			s0 += a01 * b1v
			s0 += a02 * b2
			s0 += a03 * b3
			c0[j] = s0
			s1 := c1[j]
			s1 += a10 * b0
			s1 += a11 * b1v
			s1 += a12 * b2
			s1 += a13 * b3
			c1[j] = s1
		}
	}
	for ; p < p1; p++ {
		av0, av1 := a0[p], a1[p]
		row := b[p*stride+off : p*stride+off+len(c0)]
		for j := range c0 {
			bv := row[j]
			c0[j] += av0 * bv
			c1[j] += av1 * bv
		}
	}
}

// gemm1x4 is the single-row tail of gemm2x4 with the same per-element order.
func gemm1x4(c0, a0, b []float32, stride, off, p0, p1 int) {
	p := p0
	for ; p+3 < p1; p += 4 {
		a00, a01, a02, a03 := a0[p], a0[p+1], a0[p+2], a0[p+3]
		r0 := b[p*stride+off : p*stride+off+len(c0)]
		r1 := b[(p+1)*stride+off : (p+1)*stride+off+len(c0)]
		r2 := b[(p+2)*stride+off : (p+2)*stride+off+len(c0)]
		r3 := b[(p+3)*stride+off : (p+3)*stride+off+len(c0)]
		for j := range c0 {
			s := c0[j]
			s += a00 * r0[j]
			s += a01 * r1[j]
			s += a02 * r2[j]
			s += a03 * r3[j]
			c0[j] = s
		}
	}
	for ; p < p1; p++ {
		av := a0[p]
		row := b[p*stride+off : p*stride+off+len(c0)]
		for j := range c0 {
			c0[j] += av * row[j]
		}
	}
}

// MatVecInto computes dst = W·x (+ bias) for W (rows, cols) into caller-owned
// dst of length rows and returns dst. Four output rows are computed per pass
// — four independent dot-product chains that break the FP-add latency chain
// of the naive single-row loop. Each row's own chain is the naive sequential order, so results are
// bit-identical to MatVec.
func MatVecInto(dst, w, x, bias *Tensor) *Tensor {
	rows, cols := w.Shape[0], w.Shape[1]
	if x.Len() != cols {
		panic(fmt.Sprintf("tensor: MatVecInto W%v x len %d", w.Shape, x.Len()))
	}
	if dst.Len() != rows {
		panic(fmt.Sprintf("tensor: MatVecInto dst len %d, want %d", dst.Len(), rows))
	}
	kstats.matvec.count(2 * int64(rows) * int64(cols))
	wd, xd, out := w.Data, x.Data[:cols], dst.Data
	var bd []float32
	if bias != nil {
		bd = bias.Data
	}
	r := 0
	for ; r+3 < rows; r += 4 {
		w0 := wd[r*cols : r*cols+cols]
		w1 := wd[(r+1)*cols : (r+1)*cols+cols]
		w2 := wd[(r+2)*cols : (r+2)*cols+cols]
		w3 := wd[(r+3)*cols : (r+3)*cols+cols]
		var a0, a1, a2, a3 float32
		for c, xv := range xd {
			a0 += w0[c] * xv
			a1 += w1[c] * xv
			a2 += w2[c] * xv
			a3 += w3[c] * xv
		}
		if bd != nil {
			a0 += bd[r]
			a1 += bd[r+1]
			a2 += bd[r+2]
			a3 += bd[r+3]
		}
		out[r], out[r+1], out[r+2], out[r+3] = a0, a1, a2, a3
	}
	for ; r < rows; r++ {
		row := wd[r*cols : r*cols+cols]
		var acc float32
		for c, xv := range xd {
			acc += row[c] * xv
		}
		if bd != nil {
			acc += bd[r]
		}
		out[r] = acc
	}
	return dst
}

// MatVecTInto computes dst = Wᵀ·g for W (rows, cols) into caller-owned dst of
// length cols and returns dst. The r dimension is unrolled by 4 with one
// sequential add chain per output element (dst[c] gets r-ascending adds, as
// in the naive loop).
func MatVecTInto(dst, w, g *Tensor) *Tensor {
	rows, cols := w.Shape[0], w.Shape[1]
	if g.Len() != rows {
		panic(fmt.Sprintf("tensor: MatVecTInto W%v g len %d", w.Shape, g.Len()))
	}
	if dst.Len() != cols {
		panic(fmt.Sprintf("tensor: MatVecTInto dst len %d, want %d", dst.Len(), cols))
	}
	kstats.matvecT.count(2 * int64(rows) * int64(cols))
	wd, gd, out := w.Data, g.Data, dst.Data[:cols]
	for i := range out {
		out[i] = 0
	}
	r := 0
	for ; r+3 < rows; r += 4 {
		g0, g1, g2, g3 := gd[r], gd[r+1], gd[r+2], gd[r+3]
		w0 := wd[r*cols : r*cols+cols]
		w1 := wd[(r+1)*cols : (r+1)*cols+cols]
		w2 := wd[(r+2)*cols : (r+2)*cols+cols]
		w3 := wd[(r+3)*cols : (r+3)*cols+cols]
		for j := range out {
			s := out[j]
			s += w0[j] * g0
			s += w1[j] * g1
			s += w2[j] * g2
			s += w3[j] * g3
			out[j] = s
		}
	}
	for ; r < rows; r++ {
		gv := gd[r]
		row := wd[r*cols : r*cols+cols]
		for j := range out {
			out[j] += row[j] * gv
		}
	}
	return dst
}

// OuterAccInto accumulates the outer product g⊗x into gradW (rows, cols).
// Each gradW element receives exactly one add per call, as in the naive
// loop.
func OuterAccInto(gradW, g, x *Tensor) {
	rows, cols := gradW.Shape[0], gradW.Shape[1]
	if g.Len() != rows || x.Len() != cols {
		panic("tensor: OuterAccInto shape mismatch")
	}
	kstats.outerAcc.count(2 * int64(rows) * int64(cols))
	wd, gd, xd := gradW.Data, g.Data, x.Data[:cols]
	for r := 0; r < rows; r++ {
		gv := gd[r]
		row := wd[r*cols : r*cols+cols]
		for c, xv := range xd {
			row[c] += gv * xv
		}
	}
}
