package predict

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/sweep"
)

// modelSchema is bumped on any change to the serialized model's meaning.
const modelSchema = 1

// Region is one training workload's confidence region: the centroid and
// radius of its cells in standardized feature space, the topology hash that
// identifies the workload exactly, and two held-out residual bounds.
//
// InterpP95 (leave-one-minibatch-out) bounds interpolation: predicting an
// unseen minibatch/iteration point of this exact workload. P95Err
// (leave-one-workload-out) bounds extrapolation: what a model that never
// saw this workload did on it — the honest estimate for a query whose
// topology matches no region. The gate admits only topology-matched
// queries inside the region whose interpolation bound fits the budget;
// everything else is judged by the extrapolation bound, which in practice
// sends it to the exact simulator.
type Region struct {
	Workload string `json:"workload"`
	// TopoHash is the FNV-64a of the workload's sweep.TopologySignature.
	TopoHash string    `json:"topo_hash"`
	Centroid []float64 `json:"centroid"`
	Radius   float64   `json:"radius"`

	// Leave-one-workload-out (extrapolation) relative cycle errors.
	MeanErr float64 `json:"mean_err"`
	P95Err  float64 `json:"p95_err"`
	MaxErr  float64 `json:"max_err"`

	// Leave-one-minibatch-out (interpolation) relative cycle errors.
	InterpMean float64 `json:"interp_mean"`
	InterpP95  float64 `json:"interp_p95"`
	InterpMax  float64 `json:"interp_max"`
}

// Model is the serialized predictor: standardization constants, one weight
// vector per target (bias first), and the confidence regions. All fields
// are slices and scalars in fixed order, so Encode is byte-stable.
type Model struct {
	Schema   int      `json:"schema"`
	Features []string `json:"features"`

	// Standardization: z[i] = (f[i] - Mean[i]) / Scale[i].
	Mean  []float64 `json:"mean"`
	Scale []float64 `json:"scale"`

	// CycW predicts log1p(total cycles); FlopW predicts log1p(FLOPs);
	// AttrW[k] predicts the share of stall bucket k (compute, dma-wait,
	// tracker, link, other).
	CycW  []float64    `json:"cyc_w"`
	FlopW []float64    `json:"flop_w"`
	AttrW [5][]float64 `json:"attr_w"`

	Regions []Region `json:"regions"`

	// Gate parameters: a cell is confident iff its nearest region (by
	// standardized distance to centroid) is within Radius×Slack and that
	// region's held-out P95 error is ≤ ErrBudget.
	ErrBudget float64 `json:"err_budget"`
	Slack     float64 `json:"slack"`
	Lambda    float64 `json:"lambda"`
	Samples   int     `json:"samples"`
}

// Prediction is one cell's estimate with its confidence verdict.
type Prediction struct {
	Cycles    int64
	FLOPs     int64
	Attr      [5]int64 // compute, dma-wait, tracker, link, other
	Confident bool
	// Region is the governing confidence region's workload (the
	// topology-matched one, else the nearest); Dist the standardized
	// distance to its centroid; Bound the held-out P95 error the gate
	// judged — interpolation for a matched topology, extrapolation
	// otherwise.
	Region  string
	Matched bool // query topology exactly matches the region's workload
	Dist    float64
	Bound   float64
}

// standardize maps a raw feature vector into the model's z-space.
func (m *Model) standardize(f []float64) []float64 {
	z := make([]float64, len(f))
	for i, v := range f {
		z[i] = (v - m.Mean[i]) / m.Scale[i]
	}
	return z
}

// nearest returns the closest confidence region and its distance.
func (m *Model) nearest(z []float64) (Region, float64) {
	best, bestD := Region{}, math.Inf(1)
	for _, r := range m.Regions {
		var d float64
		for i, c := range r.Centroid {
			dv := z[i] - c
			d += dv * dv
		}
		d = math.Sqrt(d)
		if d < bestD {
			best, bestD = r, d
		}
	}
	return best, bestD
}

// Predict estimates one grid cell from raw inputs. The verdict is part of
// the result; callers implementing the sweep fast path must treat
// Confident=false as "simulate exactly".
func (m *Model) Predict(net *dnn.Network, chip arch.ChipConfig, prec arch.Precision, minibatch int, mode string, iters int) Prediction {
	f := Features(net, chip, prec, minibatch, mode, iters)
	z := m.standardize(f)

	// Pick the governing region: exact topology match wins (interpolation
	// regime, judged by the leave-one-minibatch-out bound); otherwise the
	// nearest centroid (extrapolation regime, judged by the much larger
	// leave-one-workload-out bound).
	topo := TopoHash(net)
	var region Region
	var dist float64
	matched := false
	for _, r := range m.Regions {
		if r.TopoHash == topo {
			region, matched = r, true
			var d float64
			for i, c := range r.Centroid {
				dv := z[i] - c
				d += dv * dv
			}
			dist = math.Sqrt(d)
			break
		}
	}
	if !matched {
		region, dist = m.nearest(z)
	}

	cycles := math.Expm1(dot(m.CycW, z))
	if cycles < 1 {
		cycles = 1
	}
	flops := math.Expm1(dot(m.FlopW, z))
	if flops < 0 {
		flops = 0
	}

	// Stall shares: clamp to ≥0 and renormalize, then scale to the bucket
	// identity (the five buckets sum to cycles × CompHeavy tiles).
	var shares [5]float64
	var sum float64
	for k := range shares {
		s := dot(m.AttrW[k], z)
		if s < 0 {
			s = 0
		}
		shares[k] = s
		sum += s
	}
	total := cycles * float64(chip.NumCompHeavy())
	var attr [5]int64
	if sum > 0 {
		for k := range shares {
			attr[k] = int64(math.Round(shares[k] / sum * total))
		}
	}

	bound := region.P95Err
	if matched {
		bound = region.InterpP95
	}
	p := Prediction{
		Cycles:  int64(math.Round(cycles)),
		FLOPs:   int64(math.Round(flops)),
		Attr:    attr,
		Region:  region.Workload,
		Matched: matched,
		Dist:    dist,
		Bound:   bound,
	}
	p.Confident = dist <= region.Radius*m.Slack && bound <= m.ErrBudget
	return p
}

// TopoHash is the FNV-64a fingerprint of a network's full topology
// signature — the identity the confidence gate matches regions on.
func TopoHash(net *dnn.Network) string {
	h := fnv.New64a()
	h.Write([]byte(sweep.TopologySignature(net)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// PredictCell implements sweep.Predictor: a confident prediction becomes a
// labeled fast-path result, anything else falls back to exact simulation.
func (m *Model) PredictCell(net *dnn.Network, chip arch.ChipConfig, prec arch.Precision, minibatch int, mode string, iters int) (sweep.CellPrediction, bool) {
	p := m.Predict(net, chip, prec, minibatch, mode, iters)
	if !p.Confident {
		return sweep.CellPrediction{}, false
	}
	return sweep.CellPrediction{Cycles: p.Cycles, FLOPs: p.FLOPs, Attr: p.Attr}, true
}

// LayerPrediction is the per-layer slice of a cell prediction.
type LayerPrediction struct {
	Name   string
	Cycles int64
	FLOPs  int64
}

// PredictLayers decomposes a cell prediction across the network's compute
// layers proportional to each layer's analytic cost share — the documented
// approximation behind per-layer cycle estimates (the regression is fit on
// cell totals; per-layer exact labels would need per-layer sim attribution).
func (m *Model) PredictLayers(net *dnn.Network, chip arch.ChipConfig, prec arch.Precision, minibatch int, mode string, iters int) (Prediction, []LayerPrediction) {
	p := m.Predict(net, chip, prec, minibatch, mode, iters)
	train := mode == "train"
	var total float64
	per := make([]float64, len(net.Layers))
	for i, l := range net.Layers {
		c := dnn.LayerCost(l)
		v := float64(c.TotalFLOPs())
		if !train {
			v = float64(c.StepFLOPs(dnn.FP))
		}
		per[i] = v
		total += v
	}
	var layers []LayerPrediction
	for i, l := range net.Layers {
		if per[i] == 0 {
			continue
		}
		share := per[i] / total
		layers = append(layers, LayerPrediction{
			Name:   l.Name,
			Cycles: int64(math.Round(float64(p.Cycles) * share)),
			FLOPs:  int64(math.Round(float64(p.FLOPs) * share)),
		})
	}
	return p, layers
}

// Encode serializes the model. The encoding is deterministic: fixed struct
// field order, slices only, and Go's float formatting is itself
// deterministic — so fitting the same samples twice yields identical bytes.
func (m *Model) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses a serialized model and validates that it matches this
// binary's feature layout — a model fit by an incompatible binary is an
// error, never silently misapplied weights.
func Decode(data []byte) (*Model, error) {
	// attr_w decodes into a slice first: encoding/json would drop the
	// vectors past the array's length, so a model fit with more stall
	// buckets would load with weights silently missing.
	var m Model
	wire := struct {
		*Model
		AttrW [][]float64 `json:"attr_w"`
	}{Model: &m}
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("predict: decode model: %w", err)
	}
	if len(wire.AttrW) != len(m.AttrW) {
		return nil, fmt.Errorf("predict: model has %d stall-bucket weight vectors, this binary predicts %d — refit", len(wire.AttrW), len(m.AttrW))
	}
	copy(m.AttrW[:], wire.AttrW)
	if m.Schema != modelSchema {
		return nil, fmt.Errorf("predict: model schema %d, this binary wants %d — refit", m.Schema, modelSchema)
	}
	if len(m.Features) != len(featureNames) {
		return nil, fmt.Errorf("predict: model has %d features, this binary extracts %d — refit", len(m.Features), len(featureNames))
	}
	for i, name := range m.Features {
		if name != featureNames[i] {
			return nil, fmt.Errorf("predict: model feature %d is %q, this binary extracts %q — refit", i, name, featureNames[i])
		}
	}
	if len(m.Mean) != len(featureNames) || len(m.Scale) != len(featureNames) ||
		len(m.CycW) != len(featureNames)+1 || len(m.FlopW) != len(featureNames)+1 {
		return nil, fmt.Errorf("predict: model weight shapes inconsistent with %d features", len(featureNames))
	}
	for k, w := range m.AttrW {
		if len(w) != len(featureNames)+1 {
			return nil, fmt.Errorf("predict: attr weight %d has %d entries, want %d", k, len(w), len(featureNames)+1)
		}
	}
	if len(m.Regions) == 0 {
		return nil, fmt.Errorf("predict: model has no confidence regions")
	}
	for _, r := range m.Regions {
		if len(r.Centroid) != len(featureNames) {
			return nil, fmt.Errorf("predict: region %q centroid has %d entries, want %d", r.Workload, len(r.Centroid), len(featureNames))
		}
	}
	return &m, nil
}

// LoadFile reads and decodes a model file.
func LoadFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	return Decode(data)
}
