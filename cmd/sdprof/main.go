// Command sdprof runs a workload on the ScaleDeep simulator with
// per-instruction cycle attribution enabled and prints a ranked per-layer
// bottleneck profile: cycles, share, achieved FLOP/cycle and bytes/cycle
// against the chip's roofline, a compute/memory/interconnect-bound verdict,
// and a stacked stall-breakdown bar — the Fig. 16-style analysis of which
// layers keep the PE arrays busy and which stall on data movement.
//
// Usage:
//
//	sdprof [-net NAME] [-train] [-mb N] [-iters N] [-top N] [-json] \
//	       [-serve :6060] [-log-out PATH|-] [-log-level LEVEL]
//
// -net names a sweep catalogue workload (sweep.Workloads; MiniVGG by
// default), loaded with the sweep cell's data (sweep.LoadCell) on a 3×10
// single-precision chip.
//
// Below the table, sdprof prints interpolated p50/p95/p99 quantiles of the
// per-op cycle histogram (sim.op.cycles) — a quick read on whether the
// cycle budget is dominated by a few heavyweight ops or spread thin.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/profile"
	"scaledeep/internal/report"
	"scaledeep/internal/sim"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

func main() {
	netName := flag.String("net", "minivgg", "sweep catalogue workload: "+strings.Join(sweep.Workloads(), ", "))
	train := flag.Bool("train", false, "profile training (FP+BP+WG) instead of evaluation")
	mb := flag.Int("mb", 2, "minibatch size")
	iters := flag.Int("iters", 1, "minibatch iterations")
	top := flag.Int("top", 0, "limit the table to the N worst layers (0 = all)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of the table")
	serveAddr := flag.String("serve", "", "also serve /metrics, /trace, /profile and /debug/pprof/ on this address and stay up after the run")
	logOut := flag.String("log-out", "", "structured JSON log destination (path, - for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()
	if *mb < 1 || *iters < 1 {
		fmt.Fprintf(os.Stderr, "sdprof: -mb %d -iters %d: both must be at least 1\n", *mb, *iters)
		os.Exit(2)
	}
	nw, err := sweep.BuildWorkload(*netName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdprof: -net: %v\n", err)
		os.Exit(2)
	}

	logger, closeLog, err := telemetry.OpenLogger(*logOut, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdprof: %v\n", err)
		os.Exit(1)
	}
	defer closeLog()

	chip := arch.Baseline().Cluster.Conv
	chip.Rows, chip.Cols = 3, 10

	// With -serve, one trace lane records the compiler's phase spans and
	// the simulator's op and stall spans, up to its first 1<<16.
	var spanTrace *telemetry.JobTrace
	var lane telemetry.TraceContext
	metrics := telemetry.NewRegistry()
	opts := compiler.Options{Minibatch: *mb, Iterations: *iters, Training: *train, LR: 0.0625}
	if *serveAddr != "" {
		spanTrace = telemetry.NewJobTrace("sdprof", 1<<16, nil)
		lane = spanTrace.Context(0, "")
		opts.Spans = lane
	}
	c, err := compiler.Compile(nw, chip, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	m := sim.NewMachine(chip, arch.Single, true)
	m.EnableInstrProfile()
	m.SetSpanSink(lane)
	m.SetMetrics(metrics)
	profVar := telemetry.NewJSONVar(`{"state":"running"}`)
	var bs *telemetry.BackgroundServer
	if *serveAddr != "" {
		var err error
		bs, err = telemetry.ServeBackground(*serveAddr, telemetry.NewHTTPMux(metrics, spanTrace, profVar.Get))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("observability endpoints on http://%s (/metrics /trace /profile /debug/pprof/)\n", bs.Addr())
	}

	if err := c.Install(m); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := sweep.LoadCell(c, m); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if logger != nil {
		logger.Info("profile.started", "net", *netName, "mb", *mb, "train", *train, "iters", *iters)
	}
	runStart := time.Now()
	st, err := m.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := profile.Collect(c, m, st)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if logger != nil {
		logger.Info("profile.done", "net", *netName, "cycles", st.Cycles,
			"duration_ms", time.Since(runStart).Milliseconds())
	}
	if *jsonOut {
		data, err := report.ProfileJSON(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(rep.Text(*top))
		for _, h := range metrics.Snapshot().Histograms {
			if h.Name == "sim.op.cycles" && len(h.Labels) == 0 && h.Count > 0 {
				fmt.Printf("op cycle quantiles: p50=%.0f p95=%.0f p99=%.0f (%d ops)\n",
					h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Count)
			}
		}
	}
	if bs != nil {
		if data, err := report.ProfileJSON(rep); err == nil {
			profVar.Set(data)
		}
		fmt.Println("run complete; observability endpoints stay up — Ctrl-C to drain and exit")
		if err := bs.ShutdownOnSignal(context.Background(), 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
