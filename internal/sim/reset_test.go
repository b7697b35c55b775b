package sim_test

import (
	"reflect"
	"testing"

	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/sim"
	"scaledeep/internal/sweep"
	"scaledeep/internal/tensor"
)

// cellRun is what runCell observed of one simulated cell.
type cellRun struct {
	stats sim.Stats
	outs  [][]float32
	c     *compiler.Compiled
}

// runCell compiles one cell of a catalogue workload and runs it on m the
// way the sweep engine does (fixed seeds, no bias), returning the
// statistics, every image's output and the compiled program.
func runCell(t *testing.T, m *sim.Machine, workload string, mb int, train bool) cellRun {
	t.Helper()
	net, err := sweep.BuildWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(net, m.Chip, compiler.Options{Minibatch: mb, Iterations: 1, Training: train, LR: 0.0625})
	if err != nil {
		t.Fatalf("compile %s: %v", workload, err)
	}
	if err := c.Install(m); err != nil {
		t.Fatal(err)
	}
	e := dnn.NewExecutor(net, 1)
	e.NoBias = true
	if err := c.LoadWeights(m, e); err != nil {
		t.Fatal(err)
	}
	in := net.Layers[0].Out
	rng := tensor.NewRNG(7)
	inputs := make([]*tensor.Tensor, mb)
	golden := make([]*tensor.Tensor, mb)
	for i := range inputs {
		inputs[i] = tensor.New(in.C, in.H, in.W)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(net.OutputLayer().Out.Elems())
		rng.FillUniform(golden[i], 1)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		t.Fatal(err)
	}
	if train {
		if err := c.LoadGolden(m, golden); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run %s: %v", workload, err)
	}
	outs := make([][]float32, mb)
	for i := range outs {
		outs[i] = c.ReadOutput(m, i)
	}
	return cellRun{stats: st, outs: outs, c: c}
}

// The compiler's external-memory layout (internal/compiler/codegen.go):
// per-image inputs, golden outputs and outputs, in element addresses.
const (
	extInputBase  = 0
	extGoldenBase = 4 << 20
	extOutputBase = 8 << 20
)

// TestResetNoLeakAcrossWorkloads is the pooled-machine property the sweep
// engine relies on: a machine that ran one compiled workload and was Reset
// reruns another exactly like a fresh machine — statistics, outputs, every
// MemHeavy scratchpad's contents and the external input, golden and output
// regions. Both orders run: a larger run before a smaller one is the case
// a Reset that clears too little would miss.
func TestResetNoLeakAcrossWorkloads(t *testing.T) {
	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		t.Fatal(err)
	}
	capElems := int64(chip.MemHeavy.CapacityKB) * 1024 / prec.Bytes()
	for _, order := range [][2]string{{"fcnet", "minivgg"}, {"minivgg", "fcnet"}} {
		first, second := order[0], order[1]
		fresh := sim.NewMachine(chip, prec, true)
		want := runCell(t, fresh, second, 2, true)

		pooled := sim.NewMachine(chip, prec, true)
		prev := runCell(t, pooled, first, 2, true)
		pooled.Reset()
		got := runCell(t, pooled, second, 2, true)

		if !reflect.DeepEqual(want.stats, got.stats) {
			t.Fatalf("%s after %s: pooled machine's stats diverge from fresh after Reset:\nfresh:  %+v\npooled: %+v", second, first, want.stats, got.stats)
		}
		if !reflect.DeepEqual(want.outs, got.outs) {
			t.Fatalf("%s after %s: pooled machine's outputs diverge from fresh after Reset", second, first)
		}
		for tile := 0; tile < chip.Rows*(chip.Cols+1); tile++ {
			if !reflect.DeepEqual(fresh.ReadMem(tile, 0, capElems), pooled.ReadMem(tile, 0, capElems)) {
				t.Fatalf("%s after %s: MemHeavy tile %d contents diverge after Reset rerun", second, first, tile)
			}
		}
		// Each region spans the larger of the two runs' images, so data the
		// first run left behind would show.
		in := 2 * max(prev.c.InputElems, want.c.InputElems)
		out := 2 * max(prev.c.OutputElems, want.c.OutputElems)
		for _, r := range []struct {
			name       string
			base, size int64
		}{{"input", extInputBase, in}, {"golden", extGoldenBase, out}, {"output", extOutputBase, out}} {
			if !reflect.DeepEqual(fresh.ReadExt(r.base, r.size), pooled.ReadExt(r.base, r.size)) {
				t.Fatalf("%s after %s: external %s region diverges after Reset rerun", second, first, r.name)
			}
		}
	}
}

// TestScratchpadZeroAbovePeak pins the invariant the high-water Reset rests
// on: a run writes no scratchpad element at or above the tile's recorded
// high-water mark (Stats.MemPeak), so clearing below it restores a fresh
// machine's scratchpads.
func TestScratchpadZeroAbovePeak(t *testing.T) {
	for _, archName := range sweep.Archs() {
		chip, prec, err := sweep.ArchFor(archName)
		if err != nil {
			t.Fatal(err)
		}
		capElems := int64(chip.MemHeavy.CapacityKB) * 1024 / prec.Bytes()
		buf := make([]float32, capElems)
		for _, wl := range sweep.Workloads() {
			for _, train := range []bool{false, true} {
				m := sim.NewMachine(chip, prec, true)
				st := runCell(t, m, wl, 2, train).stats
				for tile, peak := range st.MemPeak {
					if peak > capElems {
						t.Fatalf("%s/%s train=%v: tile %d peak %d exceeds capacity %d", wl, archName, train, tile, peak, capElems)
					}
					m.ReadMemInto(tile, 0, buf)
					for addr := peak; addr < capElems; addr++ {
						if buf[addr] != 0 {
							t.Fatalf("%s/%s train=%v: tile %d element %d = %v at or above peak %d",
								wl, archName, train, tile, addr, buf[addr], peak)
						}
					}
				}
			}
		}
	}
}

// TestResetAfterOutOfRangeAccess checks that an out-of-range scratchpad
// access panics before it records a high-water mark: Reset afterwards must
// not slice past the scratchpad, and the machine must rerun a workload
// exactly like a fresh one.
func TestResetAfterOutOfRangeAccess(t *testing.T) {
	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		t.Fatal(err)
	}
	capElems := int64(chip.MemHeavy.CapacityKB) * 1024 / prec.Bytes()
	m := sim.NewMachine(chip, prec, true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range WriteMem did not panic")
			}
		}()
		m.WriteMem(0, capElems-1, []float32{1, 2})
	}()
	m.Reset()
	got := runCell(t, m, "fcnet", 2, true)
	want := runCell(t, sim.NewMachine(chip, prec, true), "fcnet", 2, true)
	if !reflect.DeepEqual(want.stats, got.stats) || !reflect.DeepEqual(want.outs, got.outs) {
		t.Fatal("rerun after a recovered out-of-range access diverges from a fresh machine")
	}
}
