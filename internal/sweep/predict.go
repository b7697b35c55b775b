package sweep

import (
	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/telemetry"
)

// This file is the sweep side of the learned fast-path contract
// (DESIGN.md §5h): RunGrid consults an optional cycle predictor before
// falling back to exact simulation. The interface lives here — not in
// internal/predict — so the predictor package can depend on the sweep
// engine (it harvests its training data through RunGrid) without an import
// cycle.
//
// Soundness discipline, mirroring the store tier (§5f):
//
//   - A predicted row is always labeled (Result.Source = SourcePredicted),
//     so a miss is visible, never a silently wrong answer.
//   - Exact results always win: the predictor is consulted only after the
//     persistent store misses, and only for cells the predictor itself
//     declares in-confidence. Everything else runs the exact simulator,
//     producing byte-identical tables and store traffic to a no-predictor
//     run for those cells.
//   - Predicted cells never enter the result store — the store holds exact
//     measurements only.

// CellPrediction is a predictor's estimate for one grid cell: total cycles,
// simulated FLOPs, and the five-bucket stall attribution matching the
// Result.Attr* columns (summed over CompHeavy tiles).
type CellPrediction struct {
	Cycles int64
	FLOPs  int64
	// Attr holds compute, dma-wait, tracker, link-contention and other
	// cycles in Result column order.
	Attr [5]int64
}

// Predictor is the learned fast path: PredictCell returns an estimate for
// a cell and whether that estimate is within the predictor's confidence
// gate. ok=false means "fall back to exact simulation". Implementations
// must be deterministic pure functions of their arguments and safe for
// concurrent use — sweep workers call them in parallel.
type Predictor interface {
	PredictCell(net *dnn.Network, chip arch.ChipConfig, prec arch.Precision, minibatch int, mode string, iters int) (CellPrediction, bool)
}

// TopologySignature serializes a network's full layer graph into the
// deterministic string the result store keys on. The predictor uses it to
// recognize whether a query's topology exactly matches a training workload
// — the interpolation/extrapolation split its confidence gate turns on.
func TopologySignature(net *dnn.Network) string { return topologySignature(net) }

// predictJob asks the predictor for a cell estimate, translating a
// confident prediction into a labeled Result. The workload and arch were
// validated by Grid.Jobs, so construction errors are impossible here and
// reported as a fallback.
func predictJob(p Predictor, job Job) (Result, bool) {
	net, err := BuildWorkload(job.Workload)
	if err != nil {
		return Result{}, false
	}
	chip, prec, err := ArchFor(job.Arch)
	if err != nil {
		return Result{}, false
	}
	key := job.cellKey()
	cp, ok := p.PredictCell(net, chip, prec, key.Minibatch, key.Mode, key.Iters)
	if !ok {
		return Result{}, false
	}
	return Result{
		Job:         job,
		Cycles:      cp.Cycles,
		FLOPs:       cp.FLOPs,
		AttrCompute: cp.Attr[0],
		AttrDMAWait: cp.Attr[1],
		AttrTracker: cp.Attr[2],
		AttrLink:    cp.Attr[3],
		AttrOther:   cp.Attr[4],
		Source:      SourcePredicted,
	}, true
}

// recordPredictMetrics folds the run's predictor outcome counters into the
// merged registry, one count per job. Counting happens once, after the pool
// drains, so the totals are independent of worker scheduling.
func recordPredictMetrics(reg *telemetry.Registry, results []Result) {
	if reg == nil {
		return
	}
	var hits, fallbacks int64
	for _, r := range results {
		if r.Source == SourcePredicted {
			hits++
		} else {
			fallbacks++
		}
	}
	reg.Counter("sweep.predict.hits").Add(hits)
	reg.Counter("sweep.predict.fallbacks").Add(fallbacks)
}
