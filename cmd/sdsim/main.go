// Command sdsim compiles a small network, runs it on the functional
// ScaleDeep simulator, and reports cycle counts, utilization and link
// traffic — a miniature of the paper's simulation methodology (§5).
//
// Usage:
//
//	sdsim [-train] [-mb N] [-iters N] [-trace-out t.json] \
//	      [-metrics-out m.json] [-serve :6060] [-log-out PATH|-] [-log-level LEVEL]
//
// The run is one sweep cell: the catalogue's simnet on its baseline chip,
// loaded with the cell's data (sweep.LoadCell). A minibatch sweep of the
// same network is sdsweep -workloads simnet -archs baseline -mb 1,2,4.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"scaledeep/internal/compiler"
	"scaledeep/internal/outfile"
	"scaledeep/internal/profile"
	"scaledeep/internal/report"
	"scaledeep/internal/sim"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

func main() {
	train := flag.Bool("train", false, "simulate training (FP+BP+WG) instead of evaluation")
	mb := flag.Int("mb", 2, "minibatch size")
	iters := flag.Int("iters", 1, "minibatch iterations")
	traceN := flag.Int("trace", 0, "print the first N simulator trace events (0 = off)")
	utilMap := flag.Bool("map", false, "print the Fig.19-style chip utilization map")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot JSON file")
	spanCap := flag.Int("span-cap", 1<<18, "spans the run's trace keeps (its first N) for -trace, -trace-out and -serve")
	serveAddr := flag.String("serve", "", "serve /metrics, /trace, /profile and /debug/pprof/ on this address and stay up after the run")
	logOut := flag.String("log-out", "", "structured JSON log destination (path, - for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()
	if *mb < 1 || *iters < 1 {
		fmt.Fprintf(os.Stderr, "sdsim: -mb %d -iters %d: both must be at least 1\n", *mb, *iters)
		os.Exit(2)
	}

	logger, closeLog, err := telemetry.OpenLogger(*logOut, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsim:", err)
		os.Exit(1)
	}
	defer closeLog()

	net, err := sweep.BuildWorkload("simnet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

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

	m := sim.NewMachine(chip, prec, true)
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
	if err := sweep.LoadCell(c, m); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
