package compiler

import (
	"runtime"
	"testing"

	"scaledeep/internal/arch"
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
