// Command sdtrain runs side-by-side training of the same network on the
// software reference executor and on the compiled ScaleDeep simulator,
// demonstrating functional equivalence of the hardware path (the validation
// strategy of DESIGN.md §5). The network is the sweep catalogue's trainnet;
// the chip, data seeds and learning rate are sdtrain's own.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/outfile"
	"scaledeep/internal/profile"
	"scaledeep/internal/report"
	"scaledeep/internal/sim"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
)

func main() {
	iters := flag.Int("iters", 6, "training iterations")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot JSON file")
	serveAddr := flag.String("serve", "", "serve /metrics, /trace, /profile and /debug/pprof/ on this address and stay up after the run")
	logOut := flag.String("log-out", "", "structured JSON log destination (path, - for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()
	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "sdtrain: -iters %d: must be at least 1\n", *iters)
		os.Exit(2)
	}
	const mb = 2
	const lr = float32(0.03125)

	logger, closeLog, err := telemetry.OpenLogger(*logOut, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdtrain:", err)
		os.Exit(1)
	}
	defer closeLog()

	net, err := sweep.BuildWorkload("trainnet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	inShape := net.Layers[0].Out
	rng := tensor.NewRNG(3)
	inputs := make([]*tensor.Tensor, mb)
	golden := make([]*tensor.Tensor, mb)
	for i := range inputs {
		inputs[i] = tensor.New(inShape.C, inShape.H, inShape.W)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(net.OutputLayer().Out.Elems())
		rng.FillUniform(golden[i], 1)
	}

	// One trace lane records the run: the reference executor's layer
	// spans, the compiler's phases and the simulator's op and stall spans,
	// up to its first 1<<16.
	var spanTrace *telemetry.JobTrace
	var lane telemetry.TraceContext
	if *traceOut != "" || *serveAddr != "" {
		spanTrace = telemetry.NewJobTrace("sdtrain", 1<<16, nil)
		lane = spanTrace.Context(0, "")
	}

	// Software reference.
	ref := dnn.NewExecutor(net, 42)
	ref.NoBias = true
	if spanTrace != nil {
		ref.Spans = lane
	}
	for it := 0; it < *iters; it++ {
		loss := ref.TrainEpoch(it, inputs, golden, lr)
		fmt.Printf("iter %2d  reference L2 loss %.6f\n", it+1, loss)
	}

	// Hardware path.
	chip := arch.Baseline().Cluster.Conv
	chip.Rows, chip.Cols = 3, 6
	copts := compiler.Options{Minibatch: mb, Iterations: *iters, Training: true, LR: lr}
	if spanTrace != nil {
		copts.Spans = lane
	}
	c, err := compiler.Compile(net, chip, copts)
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
	// Bring the live endpoint up before Run; /profile serves a placeholder
	// until the bottleneck report is built from the finished run.
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
	init := dnn.NewExecutor(net, 42)
	init.NoBias = true
	if err := c.Install(m); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := c.LoadWeights(m, init); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := c.LoadGolden(m, golden); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if logger != nil {
		logger.Info("train.started", "iters", *iters, "mb", mb)
	}
	runStart := time.Now()
	st, err := m.Run()
	if err != nil {
		if logger != nil {
			logger.Error("train.failed", "error", err.Error())
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if logger != nil {
		logger.Info("train.done", "iters", *iters, "cycles", st.Cycles,
			"duration_ms", time.Since(runStart).Milliseconds())
	}
	fmt.Printf("\nsimulated %d iterations in %d cycles (%d instructions)\n",
		*iters, st.Cycles, st.Instructions)

	worst := 0.0
	for _, l := range net.Layers {
		if !l.HasWeights() {
			continue
		}
		diff := tensor.MaxAbsDiff(c.ReadWeights(m, l.Index), ref.Weights[l.Index])
		fmt.Printf("  layer %-4s trained-weight divergence vs reference: %.3g\n", l.Name, diff)
		if diff > worst {
			worst = diff
		}
	}
	if worst < 1e-3 {
		fmt.Println("hardware and software training paths are equivalent ✓")
	} else {
		fmt.Println("WARNING: divergence exceeds tolerance")
		os.Exit(1)
	}

	if *traceOut != "" {
		spans := spanTrace.Assemble()
		err := outfile.WriteWith(*traceOut, func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, spans)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d spans to %s — open in ui.perfetto.dev or chrome://tracing\n",
			len(spans), *traceOut)
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
