// Command sdsweep runs a grid of independent simulations — the cross
// product of workload × arch × minibatch × mode — sharded across a
// goroutine worker pool, and renders the results as a text, CSV or JSON
// table. Results are keyed by grid index, so the table bytes are identical
// whatever -parallel is.
//
// Usage:
//
//	sdsweep [-workloads simnet,trainnet] [-archs baseline,half] \
//	        [-mb 1,2,4] [-modes eval,train] [-iters N] [-parallel N] \
//	        [-format text|csv|json] [-out table.csv] [-metrics-out m.json] \
//	        [-progress] [-serve :6060] \
//	        [-store-dir DIR] [-store-max-mb N] [-verify-store] \
//	        [-predict model.json] \
//	        [-trace-out trace.json] [-log-out PATH|-] [-log-level LEVEL]
//
// With -store-dir, results persist in a content-addressed disk store across
// runs: a repeated sweep replays from disk instead of simulating, with
// byte-identical output, and a grid cell listed twice simulates once.
// Without it every listed cell simulates, repeats included; the table is
// the same either way, because each job is a deterministic function of its
// spec. -verify-store re-simulates a deterministic sample of the hits and
// fails on any divergence.
//
// With -predict, a model fit by sdpredict answers confident grid cells in
// microseconds instead of simulating them; rows carry source=predicted so a
// fast-path answer is never mistaken for a measurement. Cells outside the
// model's confidence gate — and every store hit, which always wins — run
// the exact path byte-identically to a run without -predict.
//
// With -serve, /progress reports live completion counts while the sweep
// runs (alongside the usual /metrics, /trace, /profile, /debug/pprof/);
// after the run the endpoints stay up until SIGINT/SIGTERM, which drains
// in-flight responses before exiting.
//
// -trace-out writes a Perfetto-loadable span timeline of the whole sweep
// (per-cell store lookups, simulations and write-backs on per-cell lanes);
// span order is assembled deterministically, independent of -parallel.
// -log-out emits one JSON log line per lifecycle event (sweep.started,
// cell.done at debug level, sweep.done).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"scaledeep/internal/outfile"
	"scaledeep/internal/predict"
	"scaledeep/internal/report"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

// predictorOrNil avoids handing RunGrid a typed-nil interface.
func predictorOrNil(m *predict.Model) sweep.Predictor {
	if m == nil {
		return nil
	}
	return m
}

func main() {
	workloads := flag.String("workloads", "simnet", "comma-separated workloads: "+strings.Join(sweep.Workloads(), ", "))
	archs := flag.String("archs", "baseline", "comma-separated chip configs: "+strings.Join(sweep.Archs(), ", "))
	mbs := flag.String("mb", "2", "comma-separated minibatch sizes")
	modes := flag.String("modes", "eval", "comma-separated modes: eval, train")
	iters := flag.Int("iters", 1, "training iterations per train-mode job")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS); each worker past the first takes one of GOMAXPROCS budget tokens, so at most GOMAXPROCS+1 run at once")
	format := flag.String("format", "text", "output format: text, csv or json")
	out := flag.String("out", "", "write the table to this file instead of stdout")
	metricsOut := flag.String("metrics-out", "", "write the merged per-job metrics snapshot JSON file")
	progress := flag.Bool("progress", false, "print per-job completion lines to stderr")
	serveAddr := flag.String("serve", "", "serve /progress, /metrics and /debug/pprof/ on this address and stay up after the run")
	storeDir := flag.String("store-dir", "", "persist results in a content-addressed store at this directory; repeated sweeps replay from it byte-identically")
	storeMaxMB := flag.Int("store-max-mb", 0, "result-store size bound in MiB (0 = 256 MiB default)")
	verifyStore := flag.Bool("verify-store", false, "re-simulate a deterministic sample of store hits and fail on any divergence")
	predictPath := flag.String("predict", "", "learned fast path: answer confident grid cells from this model file (fit with sdpredict) instead of simulating; everything else falls back to exact simulation")
	traceOut := flag.String("trace-out", "", "write a Perfetto-loadable span timeline of the sweep to this file")
	logOut := flag.String("log-out", "", "structured JSON log destination (path, - for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()

	logger, closeLog, err := telemetry.OpenLogger(*logOut, *logLevel)
	if err != nil {
		fatalf("sdsweep: %v", err)
	}
	defer closeLog()

	var st *store.Store
	if *storeDir != "" {
		var sopts store.Options
		if *storeMaxMB > 0 {
			sopts.MaxBytes = int64(*storeMaxMB) << 20
		}
		var err error
		st, err = store.Open(*storeDir, sopts)
		if err != nil {
			fatalf("sdsweep: open store: %v", err)
		}
		defer st.Close()
	}

	var model *predict.Model
	if *predictPath != "" {
		if model, err = predict.LoadFile(*predictPath); err != nil {
			fatalf("sdsweep: %v", err)
		}
	}

	grid := sweep.Grid{
		Workloads:   splitList(*workloads),
		Archs:       splitList(*archs),
		Modes:       splitList(*modes),
		Iterations:  *iters,
		Minibatches: []int{},
	}
	for _, s := range splitList(*mbs) {
		mb, err := strconv.Atoi(s)
		if err != nil {
			fatalf("sdsweep: bad -mb entry %q", s)
		}
		grid.Minibatches = append(grid.Minibatches, mb)
	}
	jobs, err := grid.Jobs()
	if err != nil {
		fatalf("%v", err)
	}

	merged := telemetry.NewRegistry()
	progVar := telemetry.NewJSONVar(fmt.Sprintf(`{"state":"running","done":0,"total":%d}`, len(jobs)))
	var bs *telemetry.BackgroundServer
	if *serveAddr != "" {
		mux := telemetry.NewHTTPMux(merged, nil, nil)
		telemetry.HandleJSON(mux, "/progress", progVar.Get)
		bs, err = telemetry.ServeBackground(*serveAddr, mux)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "observability endpoints on http://%s (/progress /metrics /debug/pprof/)\n", bs.Addr())
	}

	var jt *telemetry.JobTrace
	if *traceOut != "" {
		jt = telemetry.NewJobTrace("sweep", 0, time.Now)
	}

	start := time.Now()
	if logger != nil {
		logger.Info("sweep.started", "cells", len(jobs), "workers", *parallel)
	}
	opts := sweep.Options{
		Workers:     *parallel,
		Metrics:     merged,
		Store:       st,
		VerifyStore: *verifyStore,
		Trace:       jt,
		Predictor:   predictorOrNil(model),
		Progress: func(done, total int) {
			progVar.Set([]byte(fmt.Sprintf(`{"state":"running","done":%d,"total":%d,"elapsed_ms":%d}`,
				done, total, time.Since(start).Milliseconds())))
			if logger != nil {
				logger.Debug("cell.done", "done", done, "total", total)
			}
			if *progress {
				fmt.Fprintf(os.Stderr, "sweep: %d/%d jobs\n", done, total)
			}
		},
	}
	results, err := sweep.RunGrid(context.Background(), grid, opts)
	if err != nil {
		if logger != nil {
			logger.Error("sweep.failed", "error", err.Error(), "duration_ms", time.Since(start).Milliseconds())
		}
		fatalf("%v", err)
	}
	if logger != nil {
		logger.Info("sweep.done", "cells", len(results), "duration_ms", time.Since(start).Milliseconds())
	}
	if jt != nil {
		err := outfile.WriteWith(*traceOut, func(w io.Writer) error {
			meta := telemetry.TraceMeta{Process: "sdsweep", DroppedSpans: jt.Dropped()}
			return telemetry.WriteChromeTraceMeta(w, jt.Assemble(), meta)
		})
		if err != nil {
			fatalf("sdsweep: write trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote sweep trace to %s (%d dropped spans)\n", *traceOut, jt.Dropped())
	}
	progVar.Set([]byte(fmt.Sprintf(`{"state":"done","done":%d,"total":%d,"elapsed_ms":%d}`,
		len(results), len(results), time.Since(start).Milliseconds())))

	// An empty -out renders to stdout; outfile guarantees no file is
	// created or clobbered in that case.
	dst, closeOut, err := outfile.Dest(*out, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	defer closeOut()
	switch *format {
	case "text":
		fmt.Fprint(dst, sweep.FormatText(results))
	case "csv":
		err = sweep.WriteCSV(dst, results)
	case "json":
		err = sweep.WriteJSON(dst, results)
	default:
		fatalf("sdsweep: unknown -format %q (want text, csv or json)", *format)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		fmt.Printf("wrote %d-job sweep table to %s (%.0f ms)\n", len(results), *out, time.Since(start).Seconds()*1e3)
	}
	report.AddKernelStats(merged)
	if model != nil {
		var hits, fallbacks int64
		for _, c := range merged.Snapshot().Counters {
			switch c.Name {
			case "sweep.predict.hits":
				hits = c.Value
			case "sweep.predict.fallbacks":
				fallbacks = c.Value
			}
		}
		fmt.Fprintf(os.Stderr, "predict: %d cells answered by the model, %d simulated exactly (fallback)\n", hits, fallbacks)
	}
	if st != nil {
		stats := st.Stats()
		report.AddStoreStats(merged, stats)
		fmt.Fprintf(os.Stderr, "store: %d mem hits, %d disk hits, %d misses, %d puts (%d blobs, %d bytes at %s)\n",
			stats.MemHits, stats.DiskHits, stats.Misses, stats.Puts, st.Len(), st.SizeBytes(), st.Dir())
	}
	if *metricsOut != "" {
		data, err := report.MetricsJSON(merged)
		if err == nil {
			err = outfile.Write(*metricsOut, data)
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote merged metrics snapshot to %s\n", *metricsOut)
	}
	if bs != nil {
		fmt.Println("sweep complete; observability endpoints stay up — Ctrl-C to drain and exit")
		if err := bs.ShutdownOnSignal(context.Background(), 5*time.Second); err != nil {
			fatalf("%v", err)
		}
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
