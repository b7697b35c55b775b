package compiler

import (
	"strings"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/isa"
	"scaledeep/internal/sim"
	"scaledeep/internal/tensor"
	"scaledeep/internal/zoo"
)

// testChip is a small 3-row chip with enough columns and capacity for the
// unit-test networks.
func testChip(cols int) arch.ChipConfig {
	return arch.ChipConfig{
		Kind: arch.ConvLayerChip,
		Rows: 3, Cols: cols,
		CompHeavy:  arch.CompHeavyConfig{ArrayRows: 4, ArrayCols: 2, Lanes: 2},
		MemHeavy:   arch.MemHeavyConfig{CapacityKB: 256, NumSFU: 8, TrackerSlots: 64, TrackQueueDepth: 8},
		ExtMemGBps: 150, CompMemGBps: 24, MemMemGBps: 36,
	}
}

// convPoolFCNet is the canonical small test network: conv+relu, maxpool,
// conv+tanh, FC. No softmax — the golden-output error is injected at the FC
// output, as on the hardware.
func convPoolFCNet() *dnn.Network {
	b := dnn.NewBuilder("testnet")
	in := b.Input(3, 8, 8)
	c1 := b.Conv(in, "c1", 4, 3, 1, 1, tensor.ActReLU)
	p1 := b.MaxPool(c1, "p1", 2, 2)
	c2 := b.Conv(p1, "c2", 6, 3, 1, 1, tensor.ActTanh)
	f1 := b.FC(c2, "f1", 5, tensor.ActNone)
	_ = f1
	return b.Build()
}

func TestMappingInvariants(t *testing.T) {
	net := convPoolFCNet()
	chip := testChip(8)
	m, err := Map(net, chip)
	if err != nil {
		t.Fatal(err)
	}
	mapped := m.MappedLayers()
	if len(mapped) != 4 {
		t.Fatalf("mapped %d layers", len(mapped))
	}
	// All chip columns allocated, contiguously and in order.
	next := 0
	for _, lm := range mapped {
		if len(lm.Cols) < lm.MinCols || len(lm.Cols) < 1 {
			t.Errorf("%s got %d cols, min %d", lm.Layer.Name, len(lm.Cols), lm.MinCols)
		}
		for _, c := range lm.Cols {
			if c != next {
				t.Fatalf("%s columns not contiguous: %v", lm.Layer.Name, lm.Cols)
			}
			next++
		}
	}
	if next != chip.Cols {
		t.Errorf("allocated %d of %d columns", next, chip.Cols)
	}
	// Load balancing sends the most columns to the heaviest layer.
	heaviest, most := "", 0
	var heaviestFLOPs int64
	for _, lm := range mapped {
		if len(lm.Cols) > most {
			most, heaviest = len(lm.Cols), lm.Layer.Name
		}
		if lm.TrainFLOPs > heaviestFLOPs {
			heaviestFLOPs = lm.TrainFLOPs
		}
	}
	for _, lm := range mapped {
		if lm.TrainFLOPs == heaviestFLOPs && lm.Layer.Name != heaviest && len(lm.Cols) < most {
			t.Errorf("heaviest layer %s did not get the most columns", lm.Layer.Name)
		}
	}
	// Every feature has a home on a valid tile.
	for _, lm := range mapped {
		if len(lm.Homes) == 0 {
			t.Errorf("%s has no feature homes", lm.Layer.Name)
		}
		for _, h := range lm.Homes {
			if h.Row < 0 || h.Row >= chip.Rows || h.MCol < 0 || h.MCol > chip.Cols {
				t.Errorf("%s home %v out of range", lm.Layer.Name, h)
			}
		}
	}
}

func TestMapRejectsUnsupported(t *testing.T) {
	chip := testChip(8)
	// DAG nets are rejected by the functional backend.
	b := dnn.NewBuilder("dag")
	in := b.Input(4, 6, 6)
	c1 := b.Conv(in, "c1", 4, 3, 1, 1, tensor.ActReLU)
	add := b.Add("res", in, c1)
	bb := b.Softmax(add).Build()
	if _, err := Map(bb, chip); err == nil {
		t.Error("DAG accepted")
	}
	// Grouped conv rejected.
	b2 := dnn.NewBuilder("grouped")
	in2 := b2.Input(4, 6, 6)
	g := b2.ConvG(in2, "g", 4, 3, 1, 1, 2, tensor.ActReLU)
	n2 := b2.Softmax(g).Build()
	if _, err := Map(n2, chip); err == nil {
		t.Error("grouped conv accepted")
	}
	// Non-invertible stride geometry rejected.
	b3 := dnn.NewBuilder("badstride")
	in3 := b3.Input(1, 8, 8)
	c3 := b3.Conv(in3, "c", 2, 3, 2, 0, tensor.ActReLU) // (8-3)%2 != 0
	n3 := b3.Softmax(c3).Build()
	if _, err := Map(n3, chip); err == nil {
		t.Error("non-invertible conv accepted")
	}
}

func TestGeneratedProgramsAreValid(t *testing.T) {
	net := convPoolFCNet()
	c, err := Compile(net, testChip(8), Options{Minibatch: 2, Iterations: 1, Training: true, LR: 0.015625})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Programs) == 0 {
		t.Fatal("no programs")
	}
	sawConv, sawTrack, sawMM := false, false, false
	for _, p := range c.Programs {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Tile, err)
		}
		for _, ins := range p.Instrs {
			switch ins.Op {
			case isa.NDCONV:
				sawConv = true
			case isa.DMAMEMTRACK, isa.MEMTRACK:
				sawTrack = true
			case isa.MATMUL:
				sawMM = true
			}
		}
		// Round-trip through the assembler, as Fig. 13's listing implies.
		text := isa.Disassemble(p)
		if _, err := isa.Assemble(p.Tile, text); err != nil {
			t.Fatalf("disassembly of %s does not re-assemble: %v", p.Tile, err)
		}
	}
	if !sawConv || !sawTrack || !sawMM {
		t.Errorf("instruction coverage: conv=%v track=%v matmul=%v", sawConv, sawTrack, sawMM)
	}
	if len(c.Trackers) == 0 {
		t.Error("no trackers in manifest")
	}
}

// runSim compiles, installs and runs a network on the functional simulator.
func runSim(t *testing.T, net *dnn.Network, chip arch.ChipConfig, opts Options,
	e *dnn.Executor, inputs, golden []*tensor.Tensor) (*Compiled, *sim.Machine, sim.Stats) {
	t.Helper()
	c, err := Compile(net, chip, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(chip, arch.Single, true)
	if err := c.Install(m); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadWeights(m, e); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		t.Fatal(err)
	}
	if opts.Training {
		if err := c.LoadGolden(m, golden); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return c, m, st
}

func mkInputs(net *dnn.Network, n int, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	in := net.Layers[0].Out
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(in.C, in.H, in.W)
		rng.FillUniform(out[i], 1)
	}
	return out
}

func TestFPEquivalenceWithExecutor(t *testing.T) {
	net := convPoolFCNet()
	e := dnn.NewExecutor(net, 42)
	e.NoBias = true
	inputs := mkInputs(net, 3, 7)
	opts := Options{Minibatch: 3, Iterations: 1, Training: false}
	c, m, st := runSim(t, net, testChip(8), opts, e, inputs, nil)
	for i, in := range inputs {
		want := e.Forward(in)
		got := c.ReadOutput(m, i)
		diff := tensor.MaxAbsDiff(tensor.FromSlice(got, len(got)), tensor.FromSlice(want.Data, want.Len()))
		if diff > 1e-4 {
			t.Errorf("image %d: sim vs executor FP differ by %v\nsim  %v\nwant %v", i, diff, got, want.Data)
		}
	}
	if st.Cycles <= 0 || st.FLOPs <= 0 {
		t.Errorf("stats empty: %v", st)
	}
}

var itersOverride = 3

func TestTrainingEquivalenceWithExecutor(t *testing.T) {
	net := convPoolFCNet()
	const mb = 2
	iters := itersOverride
	const lr = float32(0.015625) // exact in the WUPDATE fixed-point format

	inputs := mkInputs(net, mb, 11)
	golden := make([]*tensor.Tensor, mb)
	rng := tensor.NewRNG(13)
	for i := range golden {
		golden[i] = tensor.New(5)
		rng.FillUniform(golden[i], 1)
	}

	// Reference run.
	ref := dnn.NewExecutor(net, 42)
	ref.NoBias = true
	for it := 0; it < iters; it++ {
		for i, in := range inputs {
			out := ref.Forward(in)
			grad := out.Clone()
			tensor.Sub(grad, out, golden[i])
			ref.BackwardFrom(grad)
		}
		ref.Step(lr, 1) // the hardware update applies lr to the summed gradient
	}

	// Simulator run from identical initial weights.
	simInit := dnn.NewExecutor(net, 42)
	simInit.NoBias = true
	opts := Options{Minibatch: mb, Iterations: iters, Training: true, LR: lr}
	c, m, st := runSim(t, net, testChip(8), opts, simInit, inputs, golden)

	// Weights of every weighted layer must match the reference within float
	// accumulation tolerance.
	for _, l := range net.Layers {
		if !l.HasWeights() {
			continue
		}
		got := c.ReadWeights(m, l.Index)
		want := ref.Weights[l.Index]
		diff := tensor.MaxAbsDiff(got, want)
		if diff > 1e-3 {
			t.Errorf("layer %s trained weights differ by %v", l.Name, diff)
		}
	}
	// And the last iteration's outputs must match the reference forward pass
	// with the pre-update weights. Recompute reference outputs per image of
	// the final iteration.
	refCheck := dnn.NewExecutor(net, 42)
	refCheck.NoBias = true
	for it := 0; it < iters; it++ {
		for i, in := range inputs {
			out := refCheck.Forward(in)
			if it == iters-1 {
				got := c.ReadOutput(m, i)
				diff := tensor.MaxAbsDiff(tensor.FromSlice(got, len(got)), tensor.FromSlice(out.Data, out.Len()))
				if diff > 1e-3 {
					t.Errorf("final-iteration output %d differs by %v", i, diff)
				}
			}
			grad := out.Clone()
			tensor.Sub(grad, out, golden[i])
			refCheck.BackwardFrom(grad)
		}
		refCheck.Step(lr, 1)
	}
	if st.NACKs < 0 {
		t.Error("negative NACKs")
	}
}

func TestTrainingReducesErrorOnSim(t *testing.T) {
	// End-to-end: multiple iterations of hardware training must shrink the
	// output error against the golden vector.
	b := dnn.NewBuilder("tiny")
	in := b.Input(2, 6, 6)
	c1 := b.Conv(in, "c1", 3, 3, 1, 1, tensor.ActTanh)
	f1 := b.FC(c1, "f1", 4, tensor.ActNone)
	_ = f1
	net := b.Build()

	e := dnn.NewExecutor(net, 5)
	e.NoBias = true
	inputs := mkInputs(net, 1, 17)
	golden := []*tensor.Tensor{tensor.FromSlice([]float32{1, -1, 0.5, 0}, 4)}

	before := func() []float32 {
		opts := Options{Minibatch: 1, Iterations: 1, Training: false}
		c, m, _ := runSim(t, net, testChip(6), opts, e, inputs, nil)
		return c.ReadOutput(m, 0)
	}()

	opts := Options{Minibatch: 1, Iterations: 12, Training: true, LR: 0.03125}
	c, m, _ := runSim(t, net, testChip(6), opts, e, inputs, golden)
	after := c.ReadOutput(m, 0)

	errOf := func(out []float32) float64 {
		var s float64
		for i, v := range out {
			d := float64(v - golden[0].Data[i])
			s += d * d
		}
		return s
	}
	if errOf(after) > errOf(before)*0.6 {
		t.Errorf("training did not reduce error: before %v after %v", errOf(before), errOf(after))
	}
}

func TestEvalModeUsesAllTileSetsForForwardWork(t *testing.T) {
	// §6.1: during evaluation the BP/WG CompHeavy tiles also perform FP —
	// eval compilation spreads forward batches over all three tile sets,
	// and none of the emitted programs contain backward or update work.
	net := convPoolFCNet()
	c, err := Compile(net, testChip(8), Options{Minibatch: 1, Training: false})
	if err != nil {
		t.Fatal(err)
	}
	sawBP, sawWG := false, false
	for k, p := range c.Programs {
		if k.Step == sim.StepBP {
			sawBP = true
		}
		if k.Step == sim.StepWG {
			sawWG = true
		}
		for _, ins := range p.Instrs {
			switch ins.Op {
			case isa.WUPDATE, isa.VECMUL, isa.NDUPSAMP:
				t.Fatalf("eval program %v contains backward op %v", k, ins.Op)
			}
		}
	}
	if !sawBP || !sawWG {
		t.Errorf("eval compile left tile sets idle (BP=%v WG=%v)", sawBP, sawWG)
	}
}

func TestEvalFasterThanSingleSetWouldBe(t *testing.T) {
	// With forward batches spread over three tile sets, evaluating a
	// minibatch should take meaningfully fewer cycles than the same forward
	// work inside a training compile (which reserves BP/WG tiles for
	// backward work and so runs FP on one set).
	net := convPoolFCNet()
	chip := testChip(8)
	e := dnn.NewExecutor(net, 3)
	e.NoBias = true
	inputs := mkInputs(net, 2, 5)
	_, _, evalStats := runSim(t, net, chip, Options{Minibatch: 2, Training: false}, e, inputs, nil)

	golden := []*tensor.Tensor{tensor.New(5), tensor.New(5)}
	tensor.NewRNG(3).FillUniform(golden[0], 1)
	tensor.NewRNG(4).FillUniform(golden[1], 1)
	_, _, trainStats := runSim(t, net, chip,
		Options{Minibatch: 2, Training: true, LR: 0.0625}, e, inputs, golden)
	if evalStats.Cycles >= trainStats.Cycles {
		t.Errorf("eval (%d cycles) should beat training (%d cycles)", evalStats.Cycles, trainStats.Cycles)
	}
	t.Logf("eval %d cycles vs training %d cycles", evalStats.Cycles, trainStats.Cycles)
}

func TestCompileDeterminism(t *testing.T) {
	net := convPoolFCNet()
	opts := Options{Minibatch: 2, Iterations: 1, Training: true, LR: 0.0625}
	a, err := Compile(net, testChip(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(net, testChip(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Programs) != len(b.Programs) {
		t.Fatal("program sets differ")
	}
	for k, pa := range a.Programs {
		pb := b.Programs[k]
		if pb == nil || isa.Disassemble(pa) != isa.Disassemble(pb) {
			t.Fatalf("program %v not deterministic", k)
		}
	}
}

func TestPureConvChain(t *testing.T) {
	// A conv-only network exercises the head on a conv layer.
	b := dnn.NewBuilder("convs")
	in := b.Input(2, 5, 5)
	c1 := b.Conv(in, "c1", 3, 3, 1, 1, tensor.ActReLU)
	c2 := b.Conv(c1, "c2", 2, 3, 1, 1, tensor.ActNone)
	_ = c2
	net := b.Build()
	e := dnn.NewExecutor(net, 9)
	e.NoBias = true
	inputs := mkInputs(net, 2, 23)
	golden := []*tensor.Tensor{tensor.New(2 * 5 * 5), tensor.New(2 * 5 * 5)}
	tensor.NewRNG(29).FillUniform(golden[0], 1)
	tensor.NewRNG(31).FillUniform(golden[1], 1)

	ref := dnn.NewExecutor(net, 9)
	ref.NoBias = true
	for i, input := range inputs {
		out := ref.Forward(input)
		grad := out.Clone()
		tensor.Sub(grad, out, golden[i])
		ref.BackwardFrom(grad)
	}
	ref.Step(0.0625, 1)

	opts := Options{Minibatch: 2, Iterations: 1, Training: true, LR: 0.0625}
	c, m, _ := runSim(t, net, testChip(4), opts, e, inputs, golden)
	for _, l := range net.Layers {
		if !l.HasWeights() {
			continue
		}
		if diff := tensor.MaxAbsDiff(c.ReadWeights(m, l.Index), ref.Weights[l.Index]); diff > 1e-3 {
			t.Errorf("layer %s weights differ by %v", l.Name, diff)
		}
	}
}

func TestFCOnlyNetwork(t *testing.T) {
	b := dnn.NewBuilder("mlp")
	in := b.Input(1, 1, 12)
	f1 := b.FC(in, "f1", 8, tensor.ActSigmoid)
	f2 := b.FC(f1, "f2", 3, tensor.ActNone)
	_ = f2
	net := b.Build()
	e := dnn.NewExecutor(net, 3)
	e.NoBias = true
	inputs := mkInputs(net, 2, 37)
	opts := Options{Minibatch: 2, Iterations: 1, Training: false}
	c, m, _ := runSim(t, net, testChip(4), opts, e, inputs, nil)
	for i, in := range inputs {
		want := e.Forward(in)
		got := c.ReadOutput(m, i)
		if diff := tensor.MaxAbsDiff(tensor.FromSlice(got, len(got)), tensor.FromSlice(want.Data, want.Len())); diff > 1e-4 {
			t.Errorf("image %d FC-only outputs differ by %v", i, diff)
		}
	}
}

func TestAvgPoolNetwork(t *testing.T) {
	b := dnn.NewBuilder("avgnet")
	in := b.Input(2, 6, 6)
	c1 := b.Conv(in, "c1", 2, 3, 1, 1, tensor.ActReLU)
	p1 := b.AvgPool(c1, "p1", 2, 2)
	f1 := b.FC(p1, "f1", 3, tensor.ActNone)
	_ = f1
	net := b.Build()
	e := dnn.NewExecutor(net, 19)
	e.NoBias = true
	inputs := mkInputs(net, 1, 41)
	golden := []*tensor.Tensor{tensor.FromSlice([]float32{0.5, -0.5, 0}, 3)}

	ref := dnn.NewExecutor(net, 19)
	ref.NoBias = true
	out := ref.Forward(inputs[0])
	grad := out.Clone()
	tensor.Sub(grad, out, golden[0])
	ref.BackwardFrom(grad)
	ref.Step(0.0625, 1)

	opts := Options{Minibatch: 1, Iterations: 1, Training: true, LR: 0.0625}
	c, m, _ := runSim(t, net, testChip(6), opts, e, inputs, golden)
	for _, l := range net.Layers {
		if !l.HasWeights() {
			continue
		}
		if diff := tensor.MaxAbsDiff(c.ReadWeights(m, l.Index), ref.Weights[l.Index]); diff > 1e-3 {
			t.Errorf("layer %s weights differ by %v (avg pool BP path)", l.Name, diff)
		}
	}
}

func TestStridedConvTraining(t *testing.T) {
	// Stride-2 convolution exercises the transposed-conv BP mode.
	b := dnn.NewBuilder("strided")
	in := b.Input(2, 7, 7)
	c1 := b.Conv(in, "c1", 3, 3, 2, 0, tensor.ActReLU) // (7-3)%2==0 → 3x3 out
	f1 := b.FC(c1, "f1", 2, tensor.ActNone)
	_ = f1
	net := b.Build()
	e := dnn.NewExecutor(net, 21)
	e.NoBias = true
	inputs := mkInputs(net, 1, 43)
	golden := []*tensor.Tensor{tensor.FromSlice([]float32{1, -1}, 2)}

	ref := dnn.NewExecutor(net, 21)
	ref.NoBias = true
	out := ref.Forward(inputs[0])
	grad := out.Clone()
	tensor.Sub(grad, out, golden[0])
	ref.BackwardFrom(grad)
	ref.Step(0.0625, 1)

	opts := Options{Minibatch: 1, Iterations: 1, Training: true, LR: 0.0625}
	c, m, _ := runSim(t, net, testChip(4), opts, e, inputs, golden)
	for _, l := range net.Layers {
		if !l.HasWeights() {
			continue
		}
		if diff := tensor.MaxAbsDiff(c.ReadWeights(m, l.Index), ref.Weights[l.Index]); diff > 1e-3 {
			t.Errorf("layer %s weights differ by %v (strided BP)", l.Name, diff)
		}
	}
}

// TestCompileOverCapacityIsError: a minibatch whose per-image state overflows
// the MemHeavy scratchpads must fail Compile with an error instead of
// panicking (MiniVGG training on the half-precision chip fits up to mb 41).
func TestCompileOverCapacityIsError(t *testing.T) {
	chip := arch.HalfPrecision().Cluster.Conv
	chip.Rows, chip.Cols = 3, 8
	_, err := Compile(zoo.MiniVGG(), chip, Options{Minibatch: 64, Iterations: 1, Training: true, LR: 0.0625})
	if err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("Compile(minivgg, half, train, mb 64) = %v, want an over-capacity error", err)
	}
}
