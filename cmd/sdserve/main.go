// Command sdserve is the sweep-as-a-service daemon: a long-lived process
// that accepts sweep jobs over HTTP, runs them through a bounded priority
// queue, and memoizes every simulated cell in a persistent content-addressed
// result store — so repeated configurations are answered from disk or
// memory in microseconds instead of re-simulated.
//
// Usage:
//
//	sdserve [-addr :6060] [-store-dir DIR] [-store-max-mb N] \
//	        [-queue N] [-rate R] [-burst N] [-max-clients N] \
//	        [-max-concurrent N] [-parallel N] \
//	        [-verify-store] [-predict model.json] \
//	        [-log-out PATH|-] [-log-level LEVEL] [-max-jobs N] [-flight N]
//
// API:
//
//	POST /jobs            submit a sweep spec, returns a job ID (202)
//	GET  /jobs            list all jobs with live progress documents and
//	                      ages (?state=queued|running|done|failed|cancelled,
//	                      or ?state=active for queued+running)
//	GET  /jobs/{id}       one job's status + progress
//	GET  /jobs/{id}/result  the rendered table once the job is done
//	GET  /jobs/{id}/trace   the job's Perfetto-loadable span timeline
//	GET  /results/{key}   a raw content-addressed result blob (binary,
//	                      application/octet-stream)
//	GET  /store           persistent store statistics
//	GET  /statusz         recent-job flight recorder (JSON, or HTML table)
//	GET  /metrics /trace /profile /debug/pprof/  standard observability
//	                      (/metrics serves OpenMetrics text under
//	                      Accept: application/openmetrics-text or
//	                      ?format=openmetrics)
//
// Jobs run concurrently: up to -max-concurrent at a time (default
// min(4, cores); 1 restores the serial scheduler), dequeued highest
// priority first. Each running job holds one token of a machine-wide
// budget of GOMAXPROCS tokens and leases its extra sweep workers from it,
// so concurrency never oversubscribes the cores, and a job waiting to
// start takes over a leased worker's token at that worker's next cell
// boundary. Jobs racing on the same grid cell coalesce through the store's
// single-flight layer — one simulates, the rest share its exact bytes.
// Results are byte-identical at any -max-concurrent.
//
// With -predict, the server loads a learned cycle-predictor model (fit
// with sdpredict) and offers it to jobs that set "predict": true in their
// spec: grid cells inside the model's confidence gate are answered in
// microseconds with rows labeled source=predicted; everything else —
// including every store hit, which always wins — runs the exact simulator
// unchanged. Predicted rows are never written to the persistent store.
//
// With -log-out, every job lifecycle event (accepted, started, done,
// failed, cancelled, evicted) is emitted as one JSON log line.
//
// Example:
//
//	sdserve -addr :6060 -store-dir /var/lib/sdstore &
//	curl -s -X POST localhost:6060/jobs -d '{
//	  "workloads": ["simnet","fcnet"], "archs": ["baseline"],
//	  "minibatches": [1,2], "modes": ["eval"], "format": "csv"}'
//	curl -s localhost:6060/jobs/job-000001
//	curl -s localhost:6060/jobs/job-000001/result
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting, queued
// jobs are cancelled, running jobs finish, in-flight responses complete,
// and the store index is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scaledeep/internal/predict"
	"scaledeep/internal/server"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":6060", "HTTP listen address")
	storeDir := flag.String("store-dir", "", "persistent result-store directory (empty = no persistence)")
	storeMaxMB := flag.Int("store-max-mb", 0, "result-store size bound in MiB (0 = 256 MiB default)")
	queueMax := flag.Int("queue", 64, "job queue bound; submissions past it get 503")
	maxConcurrent := flag.Int("max-concurrent", 0, "jobs run simultaneously (0 = min(4, cores), 1 = serial scheduler); concurrent jobs split one machine-wide worker budget, results are byte-identical at any value")
	rate := flag.Float64("rate", 1, "per-client submission rate (jobs/second)")
	burst := flag.Int("burst", 8, "per-client submission burst")
	parallel := flag.Int("parallel", 0, "per-job sweep worker-pool size (0 = GOMAXPROCS)")
	verifyStore := flag.Bool("verify-store", false, "re-simulate a deterministic sample of store hits and fail jobs on divergence")
	predictPath := flag.String("predict", "", "learned fast-path model file (fit with sdpredict); jobs that set \"predict\": true answer confident cells from it instead of simulating")
	maxClients := flag.Int("max-clients", 0, "per-client rate-limit table bound; least-recently-seen clients evicted past it (0 = 1024)")
	logOut := flag.String("log-out", "", "structured JSON log destination (path, - for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	maxJobs := flag.Int("max-jobs", 0, "in-memory job table bound; oldest terminal jobs evicted past it (0 = 256)")
	flightN := flag.Int("flight", 0, "flight-recorder capacity for /statusz (0 = 64)")
	flag.Parse()

	logger, closeLog, err := telemetry.OpenLogger(*logOut, *logLevel)
	if err != nil {
		fatalf("sdserve: %v", err)
	}
	defer closeLog()

	var st *store.Store
	if *storeDir != "" {
		var opts store.Options
		if *storeMaxMB > 0 {
			opts.MaxBytes = int64(*storeMaxMB) << 20
		}
		var err error
		st, err = store.Open(*storeDir, opts)
		if err != nil {
			fatalf("sdserve: open store: %v", err)
		}
		fmt.Fprintf(os.Stderr, "result store at %s: %d blobs, %d bytes\n",
			st.Dir(), st.Len(), st.SizeBytes())
	} else {
		fmt.Fprintln(os.Stderr, "no -store-dir: running without persistence (results live for this process only)")
	}

	var model *predict.Model
	if *predictPath != "" {
		if model, err = predict.LoadFile(*predictPath); err != nil {
			fatalf("sdserve: %v", err)
		}
		fmt.Fprintf(os.Stderr, "predictor model from %s: %d regions, %d training samples (jobs opt in with \"predict\": true)\n",
			*predictPath, len(model.Regions), model.Samples)
	}

	srv := server.New(server.Config{
		Store:         st,
		VerifyStore:   *verifyStore,
		Predictor:     predictorOrNil(model),
		MaxQueue:      *queueMax,
		MaxConcurrent: *maxConcurrent,
		SweepWorkers:  *parallel,
		RatePerSec:    *rate,
		Burst:         *burst,
		MaxClients:    *maxClients,
		Logger:        logger,
		MaxJobs:       *maxJobs,
		FlightN:       *flightN,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)

	bs, err := telemetry.ServeBackground(*addr, srv.Mux())
	if err != nil {
		fatalf("sdserve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sdserve listening on http://%s (POST /jobs, GET /jobs/{id}, /results/{key}, /store, /metrics)\n", bs.Addr())

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "sdserve: draining (queued jobs cancelled, running jobs finishing)")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := bs.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "sdserve: http shutdown: %v\n", err)
	}
	srv.Drain()
	if st != nil {
		if err := st.Close(); err != nil {
			fatalf("sdserve: close store: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "sdserve: drained cleanly")
}

// predictorOrNil avoids handing Config a typed-nil interface.
func predictorOrNil(m *predict.Model) sweep.Predictor {
	if m == nil {
		return nil
	}
	return m
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
