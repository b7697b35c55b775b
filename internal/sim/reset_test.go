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

// trainCell compiles one training cell of a catalogue workload and runs it
// on m the way the sweep engine does (fixed seeds, no bias), returning the
// statistics and every image's output.
func trainCell(t *testing.T, m *sim.Machine, workload string, mb int) (sim.Stats, [][]float32) {
	t.Helper()
	net, err := sweep.BuildWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(net, m.Chip, compiler.Options{Minibatch: mb, Iterations: 1, Training: true, LR: 0.0625})
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
	if err := c.LoadGolden(m, golden); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run %s: %v", workload, err)
	}
	outs := make([][]float32, mb)
	for i := range outs {
		outs[i] = c.ReadOutput(m, i)
	}
	return st, outs
}

// TestResetNoLeakAcrossWorkloads is the pooled-machine property the sweep
// engine relies on: a machine that ran one compiled workload and was Reset
// reruns another exactly like a fresh machine — statistics, outputs and
// every MemHeavy scratchpad's contents.
func TestResetNoLeakAcrossWorkloads(t *testing.T) {
	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		t.Fatal(err)
	}
	fresh := sim.NewMachine(chip, prec, true)
	wantStats, wantOuts := trainCell(t, fresh, "minivgg", 2)

	pooled := sim.NewMachine(chip, prec, true)
	trainCell(t, pooled, "fcnet", 2)
	pooled.Reset()
	gotStats, gotOuts := trainCell(t, pooled, "minivgg", 2)

	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("pooled machine's stats diverge from fresh after Reset:\nfresh:  %+v\npooled: %+v", wantStats, gotStats)
	}
	if !reflect.DeepEqual(wantOuts, gotOuts) {
		t.Fatal("pooled machine's outputs diverge from fresh after Reset")
	}
	capElems := int64(chip.MemHeavy.CapacityKB) * 1024 / prec.Bytes()
	for tile := 0; tile < chip.Rows*(chip.Cols+1); tile++ {
		if !reflect.DeepEqual(fresh.ReadMem(tile, 0, capElems), pooled.ReadMem(tile, 0, capElems)) {
			t.Fatalf("MemHeavy tile %d contents diverge after Reset rerun", tile)
		}
	}
}
