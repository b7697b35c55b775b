// Command sdtrain runs side-by-side training of the same network on the
// software reference executor and on the compiled ScaleDeep simulator,
// demonstrating functional equivalence of the hardware path (the validation
// strategy of DESIGN.md §5).
//
// With -batch, sdtrain runs the equivalence check once per listed iteration
// count, sharded across -parallel workers by the sweep engine, and reports
// the per-job worst weight divergence. -store-dir persists each check in the
// content-addressed result store, so repeated batches replay from disk.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
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
	iters := flag.Int("iters", 6, "training iterations")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot JSON file")
	serveAddr := flag.String("serve", "", "serve /metrics, /trace, /profile and /debug/pprof/ on this address and stay up after the run")
	batch := flag.String("batch", "", "comma-separated iteration counts: run the equivalence check once per count via the sweep engine")
	parallel := flag.Int("parallel", 0, "batch-mode sweep workers (0 = GOMAXPROCS); each worker past the first takes one of GOMAXPROCS budget tokens, so at most GOMAXPROCS+1 run at once")
	storeDir := flag.String("store-dir", "", "batch mode: persist equivalence-check results in a content-addressed store at this directory")
	logOut := flag.String("log-out", "", "structured JSON log destination (path, - for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()
	const mb = 2
	const lr = float32(0.03125)

	logger, closeLog, err := telemetry.OpenLogger(*logOut, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdtrain:", err)
		os.Exit(1)
	}
	defer closeLog()

	if *batch != "" {
		runBatch(*batch, *parallel, *metricsOut, *storeDir, logger)
		return
	}

	b := dnn.NewBuilder("trainnet")
	in := b.Input(2, 10, 10)
	c1 := b.Conv(in, "c1", 4, 3, 1, 1, tensor.ActTanh)
	p1 := b.MaxPool(c1, "s1", 2, 2)
	f1 := b.FC(p1, "f1", 4, tensor.ActNone)
	_ = f1
	net := b.Build()

	rng := tensor.NewRNG(3)
	inputs := make([]*tensor.Tensor, mb)
	golden := make([]*tensor.Tensor, mb)
	for i := range inputs {
		inputs[i] = tensor.New(2, 10, 10)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(4)
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

// trainCheck is one batch-mode equivalence result; with -store-dir it is
// also the persisted payload (encodeTrainBlob), so a repeated batch
// replays cycles, divergence and metrics from disk.
type trainCheck struct {
	Iters  int
	Cycles int64
	Worst  float64
}

const trainBlobSchema = 2

// encodeTrainBlob serializes one check and its telemetry registry: Iters
// and Cycles as varints, Worst as little-endian float64 bits, then the
// registry in telemetry's binary form (Registry.AppendEncoding).
func encodeTrainBlob(c trainCheck, reg *telemetry.Registry) []byte {
	b := binary.AppendVarint(nil, int64(c.Iters))
	b = binary.AppendVarint(b, c.Cycles)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Worst))
	return reg.AppendEncoding(b)
}

// decodeTrainBlob is encodeTrainBlob's inverse. A payload it did not write,
// truncated or with bytes left over, is an error.
func decodeTrainBlob(payload []byte) (trainCheck, *telemetry.Registry, error) {
	iters, n := binary.Varint(payload)
	cycles, m := binary.Varint(payload[max(n, 0):])
	if n <= 0 || m <= 0 || len(payload) < n+m+8 {
		return trainCheck{}, nil, errors.New("sdtrain: stored check truncated or malformed")
	}
	worst := math.Float64frombits(binary.LittleEndian.Uint64(payload[n+m:]))
	reg, err := telemetry.DecodeRegistry(payload[n+m+8:])
	return trainCheck{Iters: int(iters), Cycles: cycles, Worst: worst}, reg, err
}

// trainKey derives the content address of one equivalence check. Everything
// that determines the result is baked in: payload schema and Go layout, the
// trainOnce constants (network, chip shape, minibatch, learning rate, RNG
// seeds) and the iteration count.
func trainKey(iters int) string {
	return store.NewKey().
		Int("schema", trainBlobSchema).
		Str("layout", store.LayoutHash(trainCheck{})).
		Str("runner", "sdtrain-batch/v1 net=trainnet chip=3x6 mb=2 lr=0.03125 seed=3/42 nobias").
		Int("iters", int64(iters)).
		Sum()
}

// runBatch shards one reference-vs-hardware equivalence check per listed
// iteration count across the sweep engine's worker pool. Each job is fully
// self-contained (own network, executors, machine, RNG), so jobs are
// independent and the report comes out in list order for any -parallel.
func runBatch(batch string, parallel int, metricsOut, storeDir string, logger *slog.Logger) {
	var counts []int
	for _, s := range strings.Split(batch, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "sdtrain: bad -batch entry %q\n", s)
			os.Exit(1)
		}
		counts = append(counts, n)
	}
	var st *store.Store
	if storeDir != "" {
		var err error
		st, err = store.Open(storeDir, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer st.Close()
	}
	metrics := telemetry.NewRegistry()
	if logger != nil {
		logger.Info("batch.started", "checks", len(counts), "workers", parallel)
	}
	batchStart := time.Now()
	results, err := sweep.Map(context.Background(), counts,
		sweep.Options{Workers: parallel, Metrics: metrics},
		func(_ context.Context, _ int, iters int, reg *telemetry.Registry) (trainCheck, error) {
			var key string
			if st != nil {
				key = trainKey(iters)
				payload, ok, err := st.Get(key)
				if err != nil {
					return trainCheck{}, err
				}
				if ok {
					if c, stored, derr := decodeTrainBlob(payload); derr == nil {
						reg.MergeFrom(stored)
						return c, nil
					}
					// Undecodable despite a valid checksum: quarantine and
					// fall through to a fresh simulation.
					if qerr := st.Quarantine(key); qerr != nil {
						return trainCheck{}, qerr
					}
				}
			}
			cycles, worst, err := trainOnce(iters, reg)
			if err != nil {
				return trainCheck{}, err
			}
			c := trainCheck{Iters: iters, Cycles: cycles, Worst: worst}
			if st != nil {
				if err := st.Put(key, encodeTrainBlob(c, reg)); err != nil {
					return trainCheck{}, err
				}
			}
			return c, nil
		})
	if err != nil {
		if logger != nil {
			logger.Error("batch.failed", "error", err.Error())
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if logger != nil {
		logger.Info("batch.done", "checks", len(results), "duration_ms", time.Since(batchStart).Milliseconds())
	}
	report.AddKernelStats(metrics)
	if st != nil {
		report.AddStoreStats(metrics, st.Stats())
	}
	fmt.Printf("%8s %12s %24s\n", "iters", "cycles", "worst divergence")
	failed := false
	for _, r := range results {
		verdict := "✓"
		if r.Worst >= 1e-3 {
			verdict = "DIVERGED"
			failed = true
		}
		fmt.Printf("%8d %12d %20.3g %s\n", r.Iters, r.Cycles, r.Worst, verdict)
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
	if failed {
		fmt.Println("WARNING: divergence exceeds tolerance")
		os.Exit(1)
	}
	fmt.Println("hardware and software training paths are equivalent at every iteration count ✓")
}

// trainOnce runs the full equivalence check for one iteration count and
// returns the simulated cycle count and the worst trained-weight divergence
// between the hardware path and the software reference.
func trainOnce(iters int, reg *telemetry.Registry) (int64, float64, error) {
	const mb = 2
	const lr = float32(0.03125)

	b := dnn.NewBuilder("trainnet")
	in := b.Input(2, 10, 10)
	c1 := b.Conv(in, "c1", 4, 3, 1, 1, tensor.ActTanh)
	p1 := b.MaxPool(c1, "s1", 2, 2)
	b.FC(p1, "f1", 4, tensor.ActNone)
	net := b.Build()

	rng := tensor.NewRNG(3)
	inputs := make([]*tensor.Tensor, mb)
	golden := make([]*tensor.Tensor, mb)
	for i := range inputs {
		inputs[i] = tensor.New(2, 10, 10)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(4)
		rng.FillUniform(golden[i], 1)
	}

	ref := dnn.NewExecutor(net, 42)
	ref.NoBias = true
	for it := 0; it < iters; it++ {
		ref.TrainEpoch(it, inputs, golden, lr)
	}

	chip := arch.Baseline().Cluster.Conv
	chip.Rows, chip.Cols = 3, 6
	c, err := compiler.Compile(net, chip, compiler.Options{Minibatch: mb, Iterations: iters, Training: true, LR: lr})
	if err != nil {
		return 0, 0, err
	}
	m := sim.NewMachine(chip, arch.Single, true)
	if reg != nil {
		m.SetMetrics(reg)
	}
	init := dnn.NewExecutor(net, 42)
	init.NoBias = true
	if err := c.Install(m); err != nil {
		return 0, 0, err
	}
	if err := c.LoadWeights(m, init); err != nil {
		return 0, 0, err
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		return 0, 0, err
	}
	if err := c.LoadGolden(m, golden); err != nil {
		return 0, 0, err
	}
	st, err := m.Run()
	if err != nil {
		return 0, 0, err
	}
	worst := 0.0
	for _, l := range net.Layers {
		if !l.HasWeights() {
			continue
		}
		if diff := tensor.MaxAbsDiff(c.ReadWeights(m, l.Index), ref.Weights[l.Index]); diff > worst {
			worst = diff
		}
	}
	return int64(st.Cycles), worst, nil
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
