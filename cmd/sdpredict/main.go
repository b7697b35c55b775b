// Command sdpredict fits, evaluates and inspects the learned cycle
// predictor (internal/predict): a ridge-regression model trained on
// exact-simulator measurements that answers grid cells ~1000× faster than
// simulating them, behind a confidence gate that falls back to the exact
// simulator (DESIGN.md §5h).
//
// Usage:
//
//	sdpredict -fit -model model.json \
//	          [-workloads all] [-archs all] [-mb 1,2,4] [-modes eval,train] [-iters N] \
//	          [-lambda L] [-err-budget E] [-slack S] \
//	          [-store-dir DIR] [-parallel N] [-metrics-out m.json]
//
//	sdpredict -eval -model model.json \
//	          [-mb 3] [-max-p95 0.15] [-max-fallback 0.5] [...grid flags]
//
//	sdpredict -show -model model.json
//
// -fit harvests labeled samples by running the exact simulator over the
// grid (through the ordinary sweep engine — -store-dir makes repeated fits
// replay from the result store), fits the model deterministically and
// writes it byte-stably: the same grid always produces the same file.
//
// -eval harvests a (typically held-out) grid, scores the model on it and
// prints the per-workload error table: cells, confidence-gate hits,
// fallbacks, and mean/p95/max relative cycle error over admitted cells.
// With -max-p95 / -max-fallback it exits 1 when the admitted p95 relative
// error or the fallback rate exceeds the bound — the CI accuracy gate.
//
// -show prints the model's provenance: feature count, sample count, and
// per-region held-out error bounds.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"scaledeep/internal/outfile"
	"scaledeep/internal/predict"
	"scaledeep/internal/report"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

func main() {
	fit := flag.Bool("fit", false, "harvest the grid with the exact simulator, fit the model, write it to -model")
	eval := flag.Bool("eval", false, "harvest the grid, score the model from -model against it, print the error table")
	show := flag.Bool("show", false, "print the model's regions and held-out error bounds")
	modelPath := flag.String("model", "", "model file to write (-fit) or read (-eval, -show)")

	workloads := flag.String("workloads", "all", "comma-separated workloads ('all' = "+strings.Join(sweep.Workloads(), ", ")+")")
	archs := flag.String("archs", "all", "comma-separated chip configs ('all' = "+strings.Join(sweep.Archs(), ", ")+")")
	mbs := flag.String("mb", "1,2,4", "comma-separated minibatch sizes")
	modes := flag.String("modes", "eval,train", "comma-separated modes: eval, train")
	iters := flag.Int("iters", 2, "training iterations per train-mode cell")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS); each worker past the first takes one of GOMAXPROCS budget tokens, so at most GOMAXPROCS+1 run at once")
	storeDir := flag.String("store-dir", "", "consult/populate the persistent result store for harvest simulations")

	lambda := flag.Float64("lambda", 0, "ridge penalty (0 = default)")
	errBudget := flag.Float64("err-budget", 0, "confidence gate: admit only regions whose held-out p95 relative error is within this bound (0 = default 0.15)")
	slack := flag.Float64("slack", 0, "confidence gate: admit cells within region radius × slack (0 = default 1.25)")

	maxP95 := flag.Float64("max-p95", 0, "with -eval: exit 1 if admitted p95 relative cycle error exceeds this bound (0 = report only)")
	maxFallback := flag.Float64("max-fallback", 0, "with -eval: exit 1 if the fallback rate exceeds this bound (0 = report only)")
	metricsOut := flag.String("metrics-out", "", "write the harvest's merged metrics snapshot JSON file")
	flag.Parse()

	if nModes := boolInt(*fit) + boolInt(*eval) + boolInt(*show); nModes != 1 {
		fatalf("sdpredict: pick exactly one of -fit, -eval, -show")
	}
	if *modelPath == "" {
		fatalf("sdpredict: -model is required")
	}

	if *show {
		m, err := predict.LoadFile(*modelPath)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("model %s: schema %d, %d features, %d samples, lambda %g, err-budget %.0f%%, slack %.2f\n",
			*modelPath, m.Schema, len(m.Features), m.Samples, m.Lambda, m.ErrBudget*100, m.Slack)
		fmt.Printf("%-12s %-18s %8s %22s %22s\n", "region", "topo", "radius", "interp mean/p95/max", "extrap mean/p95/max")
		for _, r := range m.Regions {
			fmt.Printf("%-12s %-18s %8.2f %6.1f%% /%5.1f%% /%5.1f%% %6.1f%% /%5.1f%% /%5.1f%%\n",
				r.Workload, r.TopoHash, r.Radius,
				r.InterpMean*100, r.InterpP95*100, r.InterpMax*100,
				r.MeanErr*100, r.P95Err*100, r.MaxErr*100)
		}
		return
	}

	grid := sweep.Grid{
		Workloads:  expandList(*workloads, sweep.Workloads()),
		Archs:      expandList(*archs, sweep.Archs()),
		Modes:      splitList(*modes),
		Iterations: *iters,
	}
	for _, s := range splitList(*mbs) {
		mb, err := strconv.Atoi(s)
		if err != nil {
			fatalf("sdpredict: bad -mb entry %q", s)
		}
		grid.Minibatches = append(grid.Minibatches, mb)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			fatalf("sdpredict: open store: %v", err)
		}
		defer st.Close()
	}
	merged := telemetry.NewRegistry()
	opts := sweep.Options{Workers: *parallel, Store: st, Metrics: merged}

	samples, err := predict.Harvest(context.Background(), grid, opts)
	if err != nil {
		fatalf("sdpredict: harvest: %v", err)
	}
	fmt.Fprintf(os.Stderr, "harvested %d labeled cells from the exact simulator\n", len(samples))

	if *metricsOut != "" {
		data, err := report.MetricsJSON(merged)
		if err == nil {
			err = outfile.Write(*metricsOut, data)
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote harvest metrics snapshot to %s\n", *metricsOut)
	}

	if *fit {
		m, err := predict.Fit(samples, predict.FitOptions{Lambda: *lambda, ErrBudget: *errBudget, Slack: *slack})
		if err != nil {
			fatalf("sdpredict: fit: %v", err)
		}
		data, err := m.Encode()
		if err != nil {
			fatalf("sdpredict: %v", err)
		}
		if err := outfile.Write(*modelPath, data); err != nil {
			fatalf("sdpredict: %v", err)
		}
		fmt.Printf("fit %d samples into %s (%d features, %d regions)\n", len(samples), *modelPath, len(m.Features), len(m.Regions))
		return
	}

	// -eval
	m, err := predict.LoadFile(*modelPath)
	if err != nil {
		fatalf("%v", err)
	}
	rep := predict.Eval(m, samples)
	fmt.Print(predict.FormatEvalTable(rep))
	failed := false
	if *maxP95 > 0 && rep.Hits > 0 && rep.P95Err > *maxP95 {
		fmt.Fprintf(os.Stderr, "sdpredict: FAIL admitted p95 relative cycle error %.2f%% > bound %.2f%%\n", rep.P95Err*100, *maxP95*100)
		failed = true
	}
	if *maxFallback > 0 && rep.FallbackRate() > *maxFallback {
		fmt.Fprintf(os.Stderr, "sdpredict: FAIL fallback rate %.1f%% > bound %.1f%%\n", rep.FallbackRate()*100, *maxFallback*100)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func expandList(s string, all []string) []string {
	if strings.TrimSpace(s) == "all" {
		return all
	}
	return splitList(s)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
