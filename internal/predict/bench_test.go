package predict

import (
	"context"
	"sync"
	"testing"
	"time"

	"scaledeep/internal/sweep"
)

// BENCH_predict.json: the learned fast path against cold exact simulation,
// per cell. BenchmarkPredictCellExact runs one grid cell through the full
// sweep engine with no store (a cold cell: compile + simulate);
// BenchmarkPredictCellFast answers the same cell from the fitted model
// (features + gate + dot products). The CI ratio gate asserts
// Fast/Exact ≤ 0.01 — at least 100× per cell.

// benchCell is the measured cell: a training cell at an unseen minibatch,
// exactly what the -predict path answers in production.
func benchCellGrid() sweep.Grid {
	return sweep.Grid{
		Workloads:   []string{"minivgg"},
		Archs:       []string{"baseline"},
		Minibatches: []int{3},
		Modes:       []string{"train"},
		Iterations:  2,
	}
}

var (
	benchOnce  sync.Once
	benchModel *Model
	benchErr   error
)

func benchFitted(b *testing.B) *Model {
	b.Helper()
	benchOnce.Do(func() {
		var samples []Sample
		samples, benchErr = Harvest(context.Background(), trainGrid(), sweep.Options{})
		if benchErr != nil {
			return
		}
		benchModel, benchErr = Fit(samples, FitOptions{})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchModel
}

// BenchmarkPredictCellExact is the baseline: one exact simulation of the
// cell through RunGrid (one cell, no store — no result is reused). Its machine
// comes from the sweep engine's process-wide pool, as it does in sdserve.
func BenchmarkPredictCellExact(b *testing.B) {
	g := benchCellGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.RunGrid(context.Background(), g, sweep.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictCellFast is the fast path: the same cell answered by the
// fitted model, confidence gate included.
func BenchmarkPredictCellFast(b *testing.B) {
	m := benchFitted(b)
	net, err := sweep.BuildWorkload("minivgg")
	if err != nil {
		b.Fatal(err)
	}
	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.Predict(net, chip, prec, 3, "train", 2)
		if !p.Confident {
			b.Fatal("benchmark cell must be confident")
		}
	}
}

// BenchmarkPredictSpeedup measures both paths in each iteration and reports
// the per-cell ratio — the headline number of BENCH_predict.json.
func BenchmarkPredictSpeedup(b *testing.B) {
	m := benchFitted(b)
	g := benchCellGrid()
	net, err := sweep.BuildWorkload("minivgg")
	if err != nil {
		b.Fatal(err)
	}
	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		b.Fatal(err)
	}
	var exact, fast time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := sweep.RunGrid(context.Background(), g, sweep.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
		exact += time.Since(t0)
		t0 = time.Now()
		// One exact simulation buys a whole-zoo sweep of predictions.
		const predictionsPerExact = 100
		for j := 0; j < predictionsPerExact; j++ {
			if p := m.Predict(net, chip, prec, 3, "train", 2); !p.Confident {
				b.Fatal("benchmark cell must be confident")
			}
		}
		fast += time.Since(t0) / predictionsPerExact
	}
	b.ReportMetric(exact.Seconds()/fast.Seconds(), "predict-speedup-x")
	b.ReportMetric(exact.Seconds()*1e6/float64(b.N), "exact-us")
	b.ReportMetric(fast.Seconds()*1e6/float64(b.N), "predict-us")
}
