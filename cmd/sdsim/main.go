// Command sdsim compiles a small network, runs it on the functional
// ScaleDeep simulator, and reports cycle counts, utilization and link
// traffic — a miniature of the paper's simulation methodology (§5).
//
// Usage:
//
//	sdsim [-train] [-mb N] [-iters N] [-trace-out t.json] \
//	      [-metrics-out m.json] [-serve :6060] [-log-out PATH|-] [-log-level LEVEL]
//	sdsim -batch 1,2,4 [-parallel N] [-train] [-metrics-out m.json] [-serve :6060] [-store-dir DIR]
//
// With -batch, sdsim sweeps the listed minibatch sizes through the sharded
// sweep engine instead of running a single simulation; -parallel sets the
// worker count, -serve adds a live /progress endpoint, and -store-dir
// persists each cell's result in the content-addressed store so repeated
// batches replay from disk byte-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/outfile"
	"scaledeep/internal/profile"
	"scaledeep/internal/report"
	"scaledeep/internal/sim"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
)

func main() {
	train := flag.Bool("train", false, "simulate training (FP+BP+WG) instead of evaluation")
	mb := flag.Int("mb", 2, "minibatch size")
	iters := flag.Int("iters", 1, "training iterations")
	traceN := flag.Int("trace", 0, "print the first N simulator trace events (0 = off)")
	utilMap := flag.Bool("map", false, "print the Fig.19-style chip utilization map")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot JSON file")
	spanCap := flag.Int("span-cap", 1<<18, "spans the run's trace keeps (its first N) for -trace, -trace-out and -serve")
	serveAddr := flag.String("serve", "", "serve /metrics, /trace, /profile and /debug/pprof/ on this address and stay up after the run")
	batch := flag.String("batch", "", "comma-separated minibatch sizes to sweep instead of a single run")
	parallel := flag.Int("parallel", 0, "batch-mode sweep workers (0 = GOMAXPROCS); each worker past the first takes one of GOMAXPROCS budget tokens, so at most GOMAXPROCS+1 run at once")
	storeDir := flag.String("store-dir", "", "batch mode: persist results in a content-addressed store at this directory")
	verifyStore := flag.Bool("verify-store", false, "batch mode: re-simulate a deterministic sample of store hits and fail on divergence")
	logOut := flag.String("log-out", "", "structured JSON log destination (path, - for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()

	logger, closeLog, err := telemetry.OpenLogger(*logOut, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsim:", err)
		os.Exit(1)
	}
	defer closeLog()

	if *batch != "" {
		runBatch(*batch, *parallel, *train, *iters, *metricsOut, *serveAddr, *storeDir, *verifyStore, logger)
		return
	}

	b := dnn.NewBuilder("simnet")
	in := b.Input(3, 12, 12)
	c1 := b.Conv(in, "c1", 6, 3, 1, 1, tensor.ActReLU)
	p1 := b.MaxPool(c1, "s1", 2, 2)
	c2 := b.Conv(p1, "c2", 8, 3, 1, 1, tensor.ActTanh)
	f1 := b.FC(c2, "f1", 10, tensor.ActNone)
	_ = f1
	net := b.Build()

	chip := arch.Baseline().Cluster.Conv
	chip.Rows, chip.Cols = 3, 8

	// One trace lane records the run: the compiler's phase spans, then the
	// simulator's op and stall spans, up to -span-cap in all.
	var spanTrace *telemetry.JobTrace
	var lane telemetry.TraceContext
	opts := compiler.Options{Minibatch: *mb, Iterations: *iters, Training: *train, LR: 0.0625}
	if *traceN > 0 || *traceOut != "" || *serveAddr != "" {
		spanTrace = telemetry.NewJobTrace("sdsim", *spanCap, nil)
		lane = spanTrace.Context(0, "")
		opts.Spans = lane
	}
	c, err := compiler.Compile(net, chip, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	m := sim.NewMachine(chip, arch.Single, true)
	m.SetSpanSink(lane)
	var metrics *telemetry.Registry
	if *metricsOut != "" || *serveAddr != "" {
		metrics = telemetry.NewRegistry()
		m.SetMetrics(metrics)
	}
	// The live endpoint comes up before Run so a long simulation can be
	// inspected while in flight; /profile serves a placeholder until the
	// per-layer report is built from the finished run.
	profVar := telemetry.NewJSONVar(`{"state":"running"}`)
	var bs *telemetry.BackgroundServer
	if *serveAddr != "" {
		m.EnableInstrProfile()
		bs, err = serveObservability(*serveAddr, metrics, spanTrace, profVar.Get)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := c.Install(m); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	e := dnn.NewExecutor(net, 1)
	e.NoBias = true
	if err := c.LoadWeights(m, e); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rng := tensor.NewRNG(7)
	inputs := make([]*tensor.Tensor, *mb)
	golden := make([]*tensor.Tensor, *mb)
	for i := range inputs {
		inputs[i] = tensor.New(3, 12, 12)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(10)
		rng.FillUniform(golden[i], 1)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *train {
		if err := c.LoadGolden(m, golden); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	mode := "evaluation"
	if *train {
		mode = "training"
	}
	if logger != nil {
		logger.Info("run.started", "mode", mode, "mb", *mb, "iters", *iters)
	}
	runStart := time.Now()
	st, err := m.Run()
	if err != nil {
		if logger != nil {
			logger.Error("run.failed", "error", err.Error())
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if logger != nil {
		logger.Info("run.done", "mode", mode, "cycles", st.Cycles,
			"instructions", st.Instructions, "duration_ms", time.Since(runStart).Milliseconds())
	}
	fmt.Printf("%s of %s on a %dx%d chip (%d programs, %d instructions)\n",
		mode, net.Name, chip.Rows, chip.Cols, len(c.Programs), c.TotalInstructions())
	fmt.Printf("  cycles          %d\n", st.Cycles)
	fmt.Printf("  instructions    %d\n", st.Instructions)
	fmt.Printf("  FLOPs           %d\n", st.FLOPs)
	fmt.Printf("  PE utilization  %.3f\n", st.PEUtilization())
	fmt.Printf("  SFU utilization %.3f\n", st.SFUUtilization())
	fmt.Printf("  comp-mem bytes  %d\n", st.CompMemBytes)
	fmt.Printf("  mem-mem bytes   %d\n", st.MemMemBytes)
	fmt.Printf("  ext-mem bytes   %d\n", st.ExtMemBytes)
	fmt.Printf("  tracker NACKs   %d\n", st.NACKs)
	out := c.ReadOutput(m, *mb-1)
	fmt.Printf("  output[last image]: %v\n", out)
	var spans []telemetry.Span
	if spanTrace != nil {
		spans = spanTrace.Assemble()
	}
	if *traceN > 0 {
		printTrace(spans, *traceN, spanTrace.Dropped())
	}
	if *utilMap {
		fmt.Println()
		fmt.Print(m.UtilizationMap())
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d spans to %s", len(spans), *traceOut)
		if d := spanTrace.Dropped(); d > 0 {
			fmt.Printf(" (%d dropped; raise -span-cap)", d)
		}
		fmt.Println(" — open in ui.perfetto.dev or chrome://tracing")
	}
	report.AddKernelStats(metrics)
	if *metricsOut != "" {
		data, err := report.MetricsJSON(metrics)
		if err == nil {
			err = outfile.Write(*metricsOut, data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
	}
	if bs != nil {
		if rep, err := profile.Collect(c, m, st); err == nil {
			if data, jerr := report.ProfileJSON(rep); jerr == nil {
				profVar.Set(data)
			}
		}
		fmt.Println("run complete; observability endpoints stay up — Ctrl-C to drain and exit")
		if err := bs.ShutdownOnSignal(context.Background(), 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runBatch sweeps the listed minibatch sizes through the sharded sweep
// engine and prints one table row per size. Rows come out in list order and
// are byte-identical for any -parallel value.
func runBatch(batch string, parallel int, train bool, iters int, metricsOut, serveAddr, storeDir string, verifyStore bool, logger *slog.Logger) {
	grid := sweep.Grid{
		Workloads: []string{"simnet"},
		Archs:     []string{"baseline"},
		Modes:     []string{"eval"},
	}
	if train {
		grid.Modes = []string{"train"}
		grid.Iterations = iters
	}
	for _, s := range strings.Split(batch, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdsim: bad -batch entry %q\n", s)
			os.Exit(1)
		}
		grid.Minibatches = append(grid.Minibatches, n)
	}
	jobs, err := grid.Jobs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var st *store.Store
	if storeDir != "" {
		st, err = store.Open(storeDir, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer st.Close()
	}

	metrics := telemetry.NewRegistry()
	progVar := telemetry.NewJSONVar(fmt.Sprintf(`{"state":"running","done":0,"total":%d}`, len(jobs)))
	var bs *telemetry.BackgroundServer
	if serveAddr != "" {
		mux := telemetry.NewHTTPMux(metrics, nil, nil)
		telemetry.HandleJSON(mux, "/progress", progVar.Get)
		bs, err = telemetry.ServeBackground(serveAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("observability endpoints on http://%s (/progress /metrics /debug/pprof/)\n", bs.Addr())
	}
	if logger != nil {
		logger.Info("sweep.started", "cells", len(jobs), "workers", parallel)
	}
	batchStart := time.Now()
	results, err := sweep.RunGrid(context.Background(), grid, sweep.Options{
		Workers:     parallel,
		Metrics:     metrics,
		Store:       st,
		VerifyStore: verifyStore,
		Progress: func(done, total int) {
			progVar.Set([]byte(fmt.Sprintf(`{"state":"running","done":%d,"total":%d}`, done, total)))
			if logger != nil {
				logger.Debug("cell.done", "done", done, "total", total)
			}
		},
	})
	if err != nil {
		if logger != nil {
			logger.Error("sweep.failed", "error", err.Error())
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if logger != nil {
		logger.Info("sweep.done", "cells", len(results), "duration_ms", time.Since(batchStart).Milliseconds())
	}
	progVar.Set([]byte(fmt.Sprintf(`{"state":"done","done":%d,"total":%d}`, len(results), len(results))))
	fmt.Print(sweep.FormatText(results))
	report.AddKernelStats(metrics)
	if st != nil {
		report.AddStoreStats(metrics, st.Stats())
	}
	if metricsOut != "" {
		data, err := report.MetricsJSON(metrics)
		if err == nil {
			err = outfile.Write(metricsOut, data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote merged metrics snapshot to %s\n", metricsOut)
	}
	if bs != nil {
		fmt.Println("batch complete; observability endpoints stay up — Ctrl-C to drain and exit")
		if err := bs.ShutdownOnSignal(context.Background(), 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// printTrace prints the first n simulator spans of the run's trace, how
// many further ones the run produced, and the busy cycles per op among the
// printed spans. The trace holds the compiler's phase spans first; dropped
// counts the spans past its bound.
func printTrace(spans []telemetry.Span, n int, dropped int64) {
	for len(spans) > 0 && spans[0].Track == "compiler" {
		spans = spans[1:]
	}
	shown := spans[:min(n, len(spans))]
	fmt.Println()
	fmt.Print(sim.FormatTrace(shown))
	if d := int64(len(spans)-len(shown)) + dropped; d > 0 {
		fmt.Printf("  (%d further events dropped)\n", d)
	}
	sum := sim.Summarize(shown)
	ops := make([]string, 0, len(sum.OpCycles))
	for op := range sum.OpCycles {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Println("  busy cycles by op:")
	for _, op := range ops {
		fmt.Printf("    %-10s %d\n", op, sum.OpCycles[op])
	}
}

// serveObservability starts the telemetry HTTP endpoint in the background
// with a graceful shutdown handle.
func serveObservability(addr string, reg *telemetry.Registry, tr *telemetry.JobTrace, fn telemetry.ProfileFunc) (*telemetry.BackgroundServer, error) {
	bs, err := telemetry.ServeBackground(addr, telemetry.NewHTTPMux(reg, tr, fn))
	if err != nil {
		return nil, err
	}
	fmt.Printf("observability endpoints on http://%s (/metrics /trace /profile /debug/pprof/)\n", bs.Addr())
	return bs, nil
}

// writeChromeTrace exports the recorded spans as Chrome trace-event JSON;
// an empty path is a no-op (outfile's disabled-output contract).
func writeChromeTrace(path string, spans []telemetry.Span) error {
	return outfile.WriteWith(path, func(w io.Writer) error {
		return telemetry.WriteChromeTrace(w, spans)
	})
}
