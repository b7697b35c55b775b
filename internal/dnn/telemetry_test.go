package dnn

import (
	"testing"

	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
)

// TrainEpoch must be exactly the open-coded regression loop it replaces:
// per-image FP, error = out − golden, summed squared error, BP/WG, then one
// SGD step over the accumulated gradients.
func TestTrainEpochMatchesOpenCodedLoop(t *testing.T) {
	n := toyNet()
	a := NewExecutor(n, 7)
	b := NewExecutor(n, 7)

	rng := tensor.NewRNG(11)
	var inputs, golden []*tensor.Tensor
	for i := 0; i < 3; i++ {
		in := tensor.New(3, 16, 16)
		rng.FillUniform(in, 1)
		inputs = append(inputs, in)
		gv := tensor.New(10)
		rng.FillUniform(gv, 1)
		golden = append(golden, gv)
	}

	const lr = 0.05
	var want float64
	for i, img := range inputs {
		out := a.Forward(img)
		grad := out.Clone()
		tensor.Sub(grad, out, golden[i])
		for _, v := range grad.Data {
			want += float64(v) * float64(v)
		}
		a.BackwardFrom(grad)
	}
	a.Step(lr, 1)

	got := b.TrainEpoch(0, inputs, golden, lr)
	if got != want {
		t.Fatalf("TrainEpoch loss = %v, open-coded loop = %v", got, want)
	}
	for i := range a.Weights {
		if a.Weights[i] == nil {
			continue
		}
		if d := tensor.MaxAbsDiff(a.Weights[i], b.Weights[i]); d != 0 {
			t.Fatalf("layer %d weights diverged by %v", i, d)
		}
	}
}

func TestTrainEpochLossDecreases(t *testing.T) {
	e := NewExecutor(toyNet(), 3)
	rng := tensor.NewRNG(9)
	in := tensor.New(3, 16, 16)
	rng.FillUniform(in, 1)
	gv := tensor.New(10)
	rng.FillUniform(gv, 0.5)
	inputs := []*tensor.Tensor{in}
	golden := []*tensor.Tensor{gv}

	first := e.TrainEpoch(0, inputs, golden, 0.005)
	var last float64
	for ep := 1; ep < 10; ep++ {
		last = e.TrainEpoch(ep, inputs, golden, 0.005)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
}

func TestExecutorSpansRecordLayers(t *testing.T) {
	e := NewExecutor(toyNet(), 3)
	tr := telemetry.NewJobTrace("run", 0, nil)
	e.Spans = tr.Context(0, "")

	in := tensor.New(3, 16, 16)
	tensor.NewRNG(1).FillUniform(in, 1)
	gv := tensor.New(10)
	e.TrainEpoch(0, []*tensor.Tensor{in}, []*tensor.Tensor{gv}, 0.01)

	fp := map[string]bool{}
	bp := map[string]bool{}
	epoch := false
	for _, s := range tr.Assemble() {
		if s.Start < 0 || s.Dur < 0 {
			t.Fatalf("degenerate span: %+v", s)
		}
		switch s.Track {
		case "dnn/fp":
			fp[s.Name] = true
		case "dnn/bp":
			bp[s.Name] = true
		case "dnn":
			if s.Name == "epoch0" {
				epoch = true
			}
		}
	}
	for _, want := range []string{"c1", "s1", "c2", "s2", "f1"} {
		if !fp[want] {
			t.Errorf("missing FP span for layer %q (have %v)", want, fp)
		}
		if !bp[want] {
			t.Errorf("missing BP span for layer %q (have %v)", want, bp)
		}
	}
	if !epoch {
		t.Error("missing epoch0 span on dnn track")
	}
}
