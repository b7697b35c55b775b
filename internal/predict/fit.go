package predict

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"scaledeep/internal/sweep"
)

// Sample is one labeled training point: a grid cell's feature vector and
// the exact simulator's measurements for it.
type Sample struct {
	Workload  string
	Arch      string
	Minibatch int
	Mode      string
	Iters     int

	Features []float64
	Cycles   int64
	FLOPs    int64
	Attr     [5]int64 // compute, dma-wait, tracker, link, other
}

// Harvest runs the exact simulator over the grid (through the ordinary
// sweep engine, so the store and worker-pool tiers apply) and returns one
// labeled sample per distinct cell, in grid order. Cells are told apart
// the way the sweep's store keys tell them apart: names compare
// case-insensitively and eval cells ignore Iterations, so a grid that
// lists a cell twice does not weight it twice in a fit. Passing an
// opts.Store makes repeated harvests replay from disk.
func Harvest(ctx context.Context, g sweep.Grid, opts sweep.Options) ([]Sample, error) {
	opts.Predictor = nil // labels must come from the oracle
	results, err := sweep.RunGrid(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	type cell struct {
		wl, ar, mode string
		mb, iters    int
	}
	seen := map[cell]bool{}
	var samples []Sample
	for _, r := range results {
		iters := r.Iters
		if r.Mode != "train" {
			iters = 1
		}
		c := cell{wl: strings.ToLower(r.Workload), ar: strings.ToLower(r.Arch), mode: r.Mode, mb: r.Minibatch, iters: iters}
		if seen[c] {
			continue // a repeat of an already-sampled cell
		}
		seen[c] = true
		net, err := sweep.BuildWorkload(r.Workload)
		if err != nil {
			return nil, err
		}
		chip, prec, err := sweep.ArchFor(r.Arch)
		if err != nil {
			return nil, err
		}
		samples = append(samples, Sample{
			Workload:  r.Workload,
			Arch:      r.Arch,
			Minibatch: r.Minibatch,
			Mode:      r.Mode,
			Iters:     iters,
			Features:  Features(net, chip, prec, r.Minibatch, r.Mode, iters),
			Cycles:    r.Cycles,
			FLOPs:     r.FLOPs,
			Attr:      [5]int64{r.AttrCompute, r.AttrDMAWait, r.AttrTracker, r.AttrLink, r.AttrOther},
		})
	}
	return samples, nil
}

// FitOptions tune the fit and the confidence gate baked into the model.
type FitOptions struct {
	// Lambda is the ridge penalty; <= 0 selects the default.
	Lambda float64
	// ErrBudget is the held-out P95 relative cycle error a confidence
	// region may carry and still admit cells; <= 0 selects the default.
	ErrBudget float64
	// Slack scales region radii when gating (1 = only inside the training
	// hull); <= 0 selects the default.
	Slack float64
}

const (
	defaultLambda    = 1e-3
	defaultErrBudget = 0.15
	defaultSlack     = 1.25
)

// Fit trains the predictor on harvested samples. The fit is deterministic:
// samples are used in the order given (Harvest order is grid order), the
// solver iterates over slices only, and the result serializes byte-stably.
func Fit(samples []Sample, opts FitOptions) (*Model, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("predict: need at least 2 samples, got %d", len(samples))
	}
	if opts.Lambda <= 0 {
		opts.Lambda = defaultLambda
	}
	if opts.ErrBudget <= 0 {
		opts.ErrBudget = defaultErrBudget
	}
	if opts.Slack <= 0 {
		opts.Slack = defaultSlack
	}
	nf := len(featureNames)
	for i, s := range samples {
		if len(s.Features) != nf {
			return nil, fmt.Errorf("predict: sample %d has %d features, want %d", i, len(s.Features), nf)
		}
	}

	// Standardization constants over the whole training set.
	mean := make([]float64, nf)
	scale := make([]float64, nf)
	for _, s := range samples {
		for i, v := range s.Features {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(samples))
	}
	for _, s := range samples {
		for i, v := range s.Features {
			d := v - mean[i]
			scale[i] += d * d
		}
	}
	for i := range scale {
		scale[i] = math.Sqrt(scale[i] / float64(len(samples)))
		if scale[i] < 1e-9 {
			scale[i] = 1 // constant feature: z=0, weight decays to bias
		}
	}

	m := &Model{
		Schema:    modelSchema,
		Features:  FeatureNames(),
		Mean:      mean,
		Scale:     scale,
		ErrBudget: opts.ErrBudget,
		Slack:     opts.Slack,
		Lambda:    opts.Lambda,
		Samples:   len(samples),
	}

	// Design matrix (bias + standardized features) and targets.
	X := make([][]float64, len(samples))
	for i, s := range samples {
		row := make([]float64, nf+1)
		row[0] = 1
		for j, v := range s.Features {
			row[j+1] = (v - mean[j]) / scale[j]
		}
		X[i] = row
	}
	fitAll := func(idx []int) (cyc, flop []float64, attr [5][]float64, err error) {
		sub := make([][]float64, len(idx))
		y := make([]float64, len(idx))
		for k, i := range idx {
			sub[k] = X[i]
			y[k] = math.Log1p(float64(samples[i].Cycles))
		}
		if cyc, err = fitRidge(sub, y, opts.Lambda); err != nil {
			return
		}
		for k, i := range idx {
			y[k] = math.Log1p(float64(samples[i].FLOPs))
		}
		if flop, err = fitRidge(sub, append([]float64(nil), y...), opts.Lambda); err != nil {
			return
		}
		for b := 0; b < 5; b++ {
			ya := make([]float64, len(idx))
			for k, i := range idx {
				var sum int64
				for _, v := range samples[i].Attr {
					sum += v
				}
				if sum > 0 {
					ya[k] = float64(samples[i].Attr[b]) / float64(sum)
				}
			}
			if attr[b], err = fitRidge(sub, ya, opts.Lambda); err != nil {
				return
			}
		}
		return
	}

	all := make([]int, len(samples))
	for i := range all {
		all[i] = i
	}
	cyc, flop, attr, err := fitAll(all)
	if err != nil {
		return nil, err
	}
	m.CycW, m.FlopW, m.AttrW = cyc, flop, attr

	// Confidence regions, one per training workload in order of first
	// appearance (deterministic for a given sample order). Each carries two
	// held-out bounds: leave-one-workload-out (extrapolation — a model that
	// never saw this workload, predicting it) and leave-one-minibatch-out
	// (interpolation — this workload at a minibatch the fit never saw).
	var workloads []string
	seenWL := map[string]bool{}
	for _, s := range samples {
		if !seenWL[s.Workload] {
			seenWL[s.Workload] = true
			workloads = append(workloads, s.Workload)
		}
	}
	if len(workloads) < 2 {
		return nil, fmt.Errorf("predict: leave-one-workload-out needs ≥2 workloads, got %d", len(workloads))
	}
	var minibatches []int
	seenMB := map[int]bool{}
	for _, s := range samples {
		if !seenMB[s.Minibatch] {
			seenMB[s.Minibatch] = true
			minibatches = append(minibatches, s.Minibatch)
		}
	}
	if len(minibatches) < 2 {
		return nil, fmt.Errorf("predict: leave-one-minibatch-out needs ≥2 minibatch values, got %d", len(minibatches))
	}

	relErr := func(w []float64, i int) float64 {
		pred := math.Expm1(dot(w, X[i][1:]))
		if pred < 1 {
			pred = 1
		}
		actual := float64(samples[i].Cycles)
		return math.Abs(pred-actual) / actual
	}
	stats := func(errs []float64) (mean, p95, max float64) {
		sort.Float64s(errs)
		var sum float64
		for _, e := range errs {
			sum += e
		}
		return sum / float64(len(errs)), quantile(errs, 0.95), errs[len(errs)-1]
	}

	// Interpolation pass: refit without each minibatch value, score the
	// held-out cells, pool the errors per workload. Only interior values
	// (strictly between the smallest and largest trained minibatch) measure
	// what the gate admits — a query outside the hull fails the distance
	// check anyway — but when the grid has no interior value the edge
	// errors stand in, conservatively.
	minMB, maxMB := minibatches[0], minibatches[0]
	for _, mb := range minibatches {
		if mb < minMB {
			minMB = mb
		}
		if mb > maxMB {
			maxMB = mb
		}
	}
	interpErrs := map[string][]float64{}
	edgeErrs := map[string][]float64{}
	for _, mb := range minibatches {
		var in, out []int
		for i, s := range samples {
			if s.Minibatch == mb {
				in = append(in, i)
			} else {
				out = append(out, i)
			}
		}
		looCyc, _, _, err := fitAll(out)
		if err != nil {
			return nil, fmt.Errorf("predict: LOO fit without mb%d: %w", mb, err)
		}
		dst := interpErrs
		if mb == minMB || mb == maxMB {
			dst = edgeErrs
		}
		for _, i := range in {
			wl := samples[i].Workload
			dst[wl] = append(dst[wl], relErr(looCyc, i))
		}
	}

	for _, wl := range workloads {
		var in, out []int
		for i, s := range samples {
			if s.Workload == wl {
				in = append(in, i)
			} else {
				out = append(out, i)
			}
		}
		looCyc, _, _, err := fitAll(out)
		if err != nil {
			return nil, fmt.Errorf("predict: LOO fit without %s: %w", wl, err)
		}
		errs := make([]float64, len(in))
		for k, i := range in {
			errs[k] = relErr(looCyc, i)
		}
		net, err := sweep.BuildWorkload(wl)
		if err != nil {
			return nil, err
		}
		r := Region{
			Workload: wl,
			TopoHash: TopoHash(net),
			Centroid: make([]float64, nf),
		}
		r.MeanErr, r.P95Err, r.MaxErr = stats(errs)
		ie := interpErrs[wl]
		if len(ie) == 0 {
			ie = edgeErrs[wl]
		}
		r.InterpMean, r.InterpP95, r.InterpMax = stats(append([]float64(nil), ie...))
		for _, i := range in {
			for j := 0; j < nf; j++ {
				r.Centroid[j] += X[i][j+1]
			}
		}
		for j := range r.Centroid {
			r.Centroid[j] /= float64(len(in))
		}
		for _, i := range in {
			var d float64
			for j := 0; j < nf; j++ {
				dv := X[i][j+1] - r.Centroid[j]
				d += dv * dv
			}
			if d = math.Sqrt(d); d > r.Radius {
				r.Radius = d
			}
		}
		m.Regions = append(m.Regions, r)
	}
	return m, nil
}

// quantile returns the q-quantile of sorted values (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
