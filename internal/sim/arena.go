package sim

import (
	"fmt"

	"scaledeep/internal/tensor"
)

// f32Arena is a bump allocator for the transient staging of functional
// execution: float32 buffers (operand copies, SFU results, MEMSET fills)
// and the tensor headers that view them. The interpreter resets it before
// each coarse operation, so buffers and headers live exactly one op and are
// reused run-wide instead of allocated per instruction. Slices handed out
// are NOT zeroed — every caller fully overwrites its buffer — and nothing
// may escape the op (data that outlives the op, like the argmax routing an
// NDSUBSAMP records for NDUPSAMP, is allocated on its own).
type f32Arena struct {
	buf  []float32
	off  int
	want int // total demand of the current op, served or not

	hdrs [maxOpTensors]tensor.Tensor
	dims [maxOpTensors * maxOpRank]int
	nhdr int
	ndim int
}

// maxOpTensors bounds the tensor headers one op takes (NDCONV's backward-
// data mode takes the most: result, per-error gradient, error, kernel), and
// maxOpRank their rank.
const (
	maxOpTensors = 4
	maxOpRank    = 4
)

// reset starts a new op, growing the backing array if the previous op's
// total demand overflowed it.
func (a *f32Arena) reset() {
	if a.want > len(a.buf) {
		a.buf = make([]float32, a.want)
	}
	a.off, a.want = 0, 0
	a.nhdr, a.ndim = 0, 0
}

// take returns an n-element scratch slice valid until the next reset,
// falling back to a direct allocation when the arena is full this op.
func (a *f32Arena) take(n int) []float32 {
	a.want += n
	if a.off+n <= len(a.buf) {
		s := a.buf[a.off : a.off+n : a.off+n]
		a.off += n
		return s
	}
	return make([]float32, n)
}

// tensor returns a header viewing data with the given shape, valid until
// the next reset: tensor.FromSlice without its two allocations.
func (a *f32Arena) tensor(data []float32, shape ...int) *tensor.Tensor {
	dims := a.dims[a.ndim : a.ndim+len(shape) : a.ndim+len(shape)]
	copy(dims, shape)
	a.ndim += len(shape)
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("sim: shape %v needs %d elements, got %d", dims, n, len(data)))
	}
	t := &a.hdrs[a.nhdr]
	a.nhdr++
	*t = tensor.Tensor{Shape: dims, Data: data}
	return t
}
