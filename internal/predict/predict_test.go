package predict

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"scaledeep/internal/dnn"
	"scaledeep/internal/sweep"
	"scaledeep/internal/tensor"
)

// trainGrid is the canonical fit grid the tests (and CI) use: the whole
// cycle-sim zoo at three minibatch sizes, so minibatch 2 gives the fit an
// interior held-out point and minibatch 3 stays unseen for evaluation.
func trainGrid() sweep.Grid {
	return sweep.Grid{
		Workloads:   sweep.Workloads(),
		Archs:       sweep.Archs(),
		Minibatches: []int{1, 2, 4},
		Modes:       []string{"eval", "train"},
		Iterations:  2,
	}
}

var (
	fitOnce    sync.Once
	fitModel   *Model
	fitSamples []Sample
	fitErr     error
)

// fittedModel harvests and fits once per test binary — the labels come from
// real simulations, so sharing the fit keeps the suite fast.
func fittedModel(t testing.TB) (*Model, []Sample) {
	t.Helper()
	fitOnce.Do(func() {
		fitSamples, fitErr = Harvest(context.Background(), trainGrid(), sweep.Options{})
		if fitErr != nil {
			return
		}
		fitModel, fitErr = Fit(fitSamples, FitOptions{})
	})
	if fitErr != nil {
		t.Fatal(fitErr)
	}
	return fitModel, fitSamples
}

// The fit must be a deterministic function of its samples, and the
// serialized model byte-stable — refitting the same harvest twice yields
// identical bytes (the property that makes a checked-in model auditable).
func TestFitDeterministicByteStable(t *testing.T) {
	m1, samples := fittedModel(t)
	m2, err := Fit(fitSamples, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("refitting identical samples changed the serialized model (%d vs %d bytes)", len(b1), len(b2))
	}

	// Decode round-trips to the same bytes.
	dec, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("decode/encode round trip changed the model bytes")
	}
	if len(samples) == 0 {
		t.Fatal("harvest returned no samples")
	}
}

// A freshly harvested grid must produce the identical model: harvest order
// is grid order and simulation is deterministic.
func TestHarvestDeterministic(t *testing.T) {
	m1, _ := fittedModel(t)
	samples, err := Harvest(context.Background(), trainGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(samples, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := m1.Encode()
	b2, _ := m2.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatal("harvest at a different worker count produced a different model")
	}
}

// Harvest keeps one sample per distinct cell, telling cells apart as the
// sweep's store keys do: a workload or arch listed twice under different
// capitalization is one cell, and sampling it twice would double its
// weight in a fit.
func TestHarvestOneSamplePerCell(t *testing.T) {
	samples, err := Harvest(context.Background(), sweep.Grid{
		Workloads:   []string{"simnet", "SimNet"},
		Archs:       []string{"baseline", "BASELINE"},
		Minibatches: []int{1},
		Modes:       []string{"eval"},
	}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 {
		t.Fatalf("harvest of one cell listed 4 ways returned %d samples, want 1", len(samples))
	}
}

// Held-out accuracy: minibatch 3 was never fit. The confidence gate must
// admit these topology-matched, in-hull cells, and the admitted p95
// relative cycle error must stay within the documented budget — the same
// bound CI enforces through sdpredict -eval.
func TestHeldOutMinibatchAccuracy(t *testing.T) {
	m, _ := fittedModel(t)
	g := trainGrid()
	g.Minibatches = []int{3}
	held, err := Harvest(context.Background(), g, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Eval(m, held)
	if rep.Cells == 0 {
		t.Fatal("no held-out cells")
	}
	if rate := rep.FallbackRate(); rate > 0.5 {
		t.Errorf("fallback rate %.0f%% > 50%% on topology-matched in-hull cells:\n%s", rate*100, FormatEvalTable(rep))
	}
	if rep.Hits > 0 && rep.P95Err > defaultErrBudget {
		t.Errorf("held-out p95 relative error %.1f%% exceeds the %.0f%% budget:\n%s",
			rep.P95Err*100, defaultErrBudget*100, FormatEvalTable(rep))
	}
}

// An unknown topology must never be admitted: the gate's extrapolation
// bound (leave-one-workload-out) is honest about how wrong the model can
// be on a network it never saw.
func TestUnknownWorkloadFallsBack(t *testing.T) {
	m, _ := fittedModel(t)
	b := dnn.NewBuilder("stranger")
	in := b.Input(3, 16, 16)
	c1 := b.Conv(in, "c1", 12, 5, 1, 2, tensor.ActReLU)
	p1 := b.MaxPool(c1, "s1", 2, 2)
	c2 := b.Conv(p1, "c2", 24, 3, 1, 1, tensor.ActReLU)
	b.FC(c2, "f1", 10, tensor.ActNone)
	net := b.Build()

	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(net, chip, prec, 2, "train", 2)
	if p.Matched {
		t.Fatal("unknown topology matched a training region")
	}
	if p.Confident {
		t.Fatalf("gate admitted an unknown workload (region %s, dist %.2f, bound %.2f)", p.Region, p.Dist, p.Bound)
	}
}

// A known workload far outside the trained minibatch hull must fall back:
// the distance check bounds numeric extrapolation.
func TestOutOfHullFallsBack(t *testing.T) {
	m, _ := fittedModel(t)
	net, err := sweep.BuildWorkload("simnet")
	if err != nil {
		t.Fatal(err)
	}
	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(net, chip, prec, 512, "train", 2)
	if !p.Matched {
		t.Fatal("simnet should match its training region")
	}
	if p.Confident {
		t.Fatalf("gate admitted minibatch 512 with a hull trained on 1..4 (dist %.2f, radius×slack gate)", p.Dist)
	}
}

// Decode must reject models whose schema or feature layout differs from
// this binary — silently misapplied weights are the one failure mode a
// labeled fast path cannot tolerate.
func TestDecodeRejectsIncompatibleModels(t *testing.T) {
	m, _ := fittedModel(t)
	good, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"schema":  `"schema": 1`,
		"feature": `"log_fp_flops"`,
	}
	repl := map[string]string{
		"schema":  `"schema": 99`,
		"feature": `"not_a_feature"`,
	}
	for name, needle := range cases {
		bad := strings.Replace(string(good), needle, repl[name], 1)
		if bad == string(good) {
			t.Fatalf("test needle %q not found in encoded model", needle)
		}
		if _, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode accepted a model with a mismatched %s", name)
		}
	}
	if _, err := Decode([]byte("{")); err == nil {
		t.Error("Decode accepted malformed JSON")
	}
	if _, err := Decode(longCentroidModel(t)); err == nil {
		t.Error("Decode accepted a centroid longer than the feature vector")
	}
	if _, err := Decode(sixAttrModel(t)); err == nil {
		t.Error("Decode accepted a model with a sixth stall-bucket weight vector")
	}
	if _, err := Decode(withAttrW(t, good, func(w []json.RawMessage) []json.RawMessage { return w[:4] })); err == nil {
		t.Error("Decode accepted a model with four stall-bucket weight vectors")
	}
}

// sixAttrModel encodes the fitted model with a sixth stall-bucket weight
// vector, a copy of the first, as a binary with one more attribution
// bucket would fit it. Its weights would be dropped, not applied, so such
// a model must never load.
func sixAttrModel(t testing.TB) []byte {
	t.Helper()
	fitted, _ := fittedModel(t)
	good, err := fitted.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return withAttrW(t, good, func(w []json.RawMessage) []json.RawMessage { return append(w, w[0]) })
}

// withAttrW re-encodes the model document data with its attr_w vectors
// replaced by edit's result.
func withAttrW(t testing.TB, data []byte, edit func([]json.RawMessage) []json.RawMessage) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var w []json.RawMessage
	if err := json.Unmarshal(doc["attr_w"], &w); err != nil {
		t.Fatal(err)
	}
	var err error
	if doc["attr_w"], err = json.Marshal(edit(w)); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// longCentroidModel encodes the fitted model with one entry appended to its
// first region's centroid. Prediction indexes the standardized feature
// vector by centroid position, so such a model must never load.
func longCentroidModel(t testing.TB) []byte {
	t.Helper()
	fitted, _ := fittedModel(t)
	good, err := fitted.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(good) // a private copy to alter
	if err != nil {
		t.Fatal(err)
	}
	m.Regions[0].Centroid = append(m.Regions[0].Centroid, 0)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The per-layer decomposition must cover the whole cell: layer cycles sum
// back to the cell total (within rounding) and only compute layers appear.
func TestPredictLayersDecomposition(t *testing.T) {
	m, _ := fittedModel(t)
	net, _ := sweep.BuildWorkload("minivgg")
	chip, prec, _ := sweep.ArchFor("baseline")
	p, layers := m.PredictLayers(net, chip, prec, 2, "train", 2)
	if len(layers) == 0 {
		t.Fatal("no layer predictions")
	}
	var sum int64
	for _, l := range layers {
		if l.Cycles < 0 {
			t.Errorf("layer %s has negative cycles", l.Name)
		}
		sum += l.Cycles
	}
	tol := int64(len(layers)) // one rounding unit per layer
	if d := sum - p.Cycles; d > tol || d < -tol {
		t.Errorf("layer cycles sum %d != cell prediction %d (±%d)", sum, p.Cycles, tol)
	}
}
