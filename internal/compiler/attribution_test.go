package compiler

import (
	"testing"

	"scaledeep/internal/dnn"
	"scaledeep/internal/tensor"
)

// TestAttributionInvariantEvalAndTraining pins the simulator's cycle
// accounting on real compiled workloads: every CompHeavy tile's attributed
// buckets must sum exactly to Stats.Cycles, for an eval run and a training
// run, so future engine changes can't silently leak cycles.
func TestAttributionInvariantEvalAndTraining(t *testing.T) {
	net := convPoolFCNet()
	e := dnn.NewExecutor(net, 42)
	e.NoBias = true
	inputs := mkInputs(net, 2, 7)
	golden := make([]*tensor.Tensor, 2)
	rng := tensor.NewRNG(13)
	for i := range golden {
		golden[i] = tensor.New(5)
		rng.FillUniform(golden[i], 1)
	}

	evalOpts := Options{Minibatch: 2, Iterations: 1, Training: false}
	_, _, st := runSim(t, net, testChip(8), evalOpts, e, inputs, nil)
	if err := st.CheckAttribution(); err != nil {
		t.Errorf("eval run: %v", err)
	}

	trainOpts := Options{Minibatch: 2, Iterations: 2, Training: true, LR: 0.015625}
	init := dnn.NewExecutor(net, 42)
	init.NoBias = true
	_, _, st = runSim(t, net, testChip(8), trainOpts, init, inputs, golden)
	if err := st.CheckAttribution(); err != nil {
		t.Errorf("training run: %v", err)
	}
	// A pipelined training run exercises every stall class the taxonomy
	// names except possibly NACK; spot-check the big ones.
	total := st.AttrTotal()
	if total[0] == 0 { // AttrCompute
		t.Errorf("training run attributed no compute cycles: %+v", total)
	}
}

// TestLayerTagsAlignWithPrograms checks the compiler's program→layer binding
// metadata: one tag per stored instruction, every mapped layer appears
// somewhere, and loop/barrier scaffolding stays untagged.
func TestLayerTagsAlignWithPrograms(t *testing.T) {
	net := convPoolFCNet()
	c, err := Compile(net, testChip(8), Options{Minibatch: 2, Iterations: 1, Training: true, LR: 0.015625})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.LayerTags) != len(c.Programs) {
		t.Fatalf("tags for %d programs, have %d programs", len(c.LayerTags), len(c.Programs))
	}
	seen := map[int]bool{}
	untagged := 0
	for k, p := range c.Programs {
		tags := c.LayerTags[k]
		if len(tags) != len(p.Instrs) {
			t.Fatalf("program %v: %d instrs but %d tags", k, len(p.Instrs), len(tags))
		}
		for _, tag := range tags {
			if tag < 0 {
				untagged++
				continue
			}
			if tag >= len(net.Layers) {
				t.Fatalf("tag %d out of range for %d layers", tag, len(net.Layers))
			}
			seen[tag] = true
		}
		// The trailing loop scaffolding (SUBRI/BGTZ/HALT) is never layer work.
		for i := len(tags) - 3; i < len(tags); i++ {
			if tags[i] != -1 {
				t.Fatalf("program %v: control instr %d tagged %d", k, i, tags[i])
			}
		}
	}
	for _, lm := range c.Mapping.MappedLayers() {
		if !seen[lm.Layer.Index] {
			t.Errorf("layer %s (index %d) has no tagged instructions", lm.Layer.Name, lm.Layer.Index)
		}
	}
	if untagged == 0 {
		t.Error("expected untagged scaffolding instructions")
	}
	if c.LayerName(-1) != "(other)" || c.LayerName(1) != net.Layers[1].Name {
		t.Errorf("LayerName mapping wrong: %q / %q", c.LayerName(-1), c.LayerName(1))
	}
}
