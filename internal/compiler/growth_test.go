package compiler

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/tensor"
	"scaledeep/internal/zoo"
)

// compileBytesPerInstr compiles MiniVGG training on the sweep's 3×8
// baseline chip and returns the bytes the compile allocated per emitted
// instruction (the lower of two compiles, so a stray background allocation
// cannot inflate it).
func compileBytesPerInstr(t *testing.T, minibatch int) float64 {
	t.Helper()
	chip := arch.Baseline().Cluster.Conv
	chip.Rows, chip.Cols = 3, 8
	opts := Options{Minibatch: minibatch, Iterations: 1, Training: true, LR: 0.0625}
	best := 0.0
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := Compile(zoo.MiniVGG(), chip, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.TotalInstructions())
		if i == 0 || per < best {
			best = per
		}
	}
	return best
}

// TestCompileAllocsLinearInMinibatch pins that compile cost grows with the
// code it emits, not faster: every image adds the same instructions, so
// the bytes allocated per instruction must stay about flat from minibatch 4
// to 32. A step quadratic in program size breaks this: prepending each
// tracker's arming block to the whole prologue doubles it.
func TestCompileAllocsLinearInMinibatch(t *testing.T) {
	small := compileBytesPerInstr(t, 4)
	large := compileBytesPerInstr(t, 32)
	t.Logf("bytes allocated per instruction: mb4 %.0f, mb32 %.0f (%.2f×)", small, large, large/small)
	if large > 1.35*small {
		t.Fatalf("compile allocates %.0f B/instr at mb32 vs %.0f at mb4 (%.2f×, bound 1.35×)",
			large, small, large/small)
	}
}

// TestCompileOverCapacityAllocsBounded: a minibatch far past the chip's
// scratchpads fails at the first image that does not fit, with the same
// error at any size, and costs what binding up to that image costs — not a
// region per requested image, which a one-cell sdserve spec could push to
// terabytes. simnet (sdsim's demo network) on the sweep's 3×8 baseline
// chip overflows at image 910 of its first layer.
func TestCompileOverCapacityAllocsBounded(t *testing.T) {
	chip := arch.Baseline().Cluster.Conv
	chip.Rows, chip.Cols = 3, 8
	b := dnn.NewBuilder("simnet")
	in := b.Input(3, 12, 12)
	c1 := b.Conv(in, "c1", 6, 3, 1, 1, tensor.ActReLU)
	p1 := b.MaxPool(c1, "s1", 2, 2)
	c2 := b.Conv(p1, "c2", 8, 3, 1, 1, tensor.ActTanh)
	b.FC(c2, "f1", 10, tensor.ActNone)
	net := b.Build()

	_, small := Compile(net, chip, Options{Minibatch: 1000})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, huge := Compile(net, chip, Options{Minibatch: 40000})
	runtime.ReadMemStats(&after)
	if huge == nil || !strings.Contains(huge.Error(), "over capacity") || !strings.Contains(huge.Error(), "(c1.feat0.i910)") {
		t.Fatalf("Compile(simnet, mb 40000) = %v, want an over-capacity error at c1.feat0.i910", huge)
	}
	if small == nil || small.Error() != huge.Error() {
		t.Errorf("mb 1000 fails with %v, mb 40000 with %v; want the same error", small, huge)
	}
	bytes, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("mb 40000: %d B in %d objects", bytes, objs)
	if bytes > 1<<20 || objs > 10000 {
		t.Errorf("failing compile at mb 40000 allocated %d B in %d objects, want at most 1 MiB and 10000", bytes, objs)
	}
}

// TestCompileRejectsIterationOverflow: the program loads its iteration
// count into a register as an int32, so a count past math.MaxInt32 is an
// error rather than a silently truncated loop.
func TestCompileRejectsIterationOverflow(t *testing.T) {
	net := convPoolFCNet()
	if _, err := Compile(net, testChip(8), Options{Minibatch: 1, Iterations: math.MaxInt32, Training: true}); err != nil {
		t.Fatalf("Compile at math.MaxInt32 iterations: %v", err)
	}
	for _, iters := range []int{math.MaxInt32 + 1, 1<<32 + 1} {
		if _, err := Compile(net, testChip(8), Options{Minibatch: 1, Iterations: iters, Training: true}); err == nil || !strings.Contains(err.Error(), "iterations") {
			t.Errorf("Compile at %d iterations = %v, want an iteration-count error", iters, err)
		}
	}
}
