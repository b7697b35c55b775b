// Package server is the sweep-as-a-service layer: a long-lived job daemon
// that accepts simulation sweep specs over HTTP, feeds them through a
// bounded priority queue into the sweep engine, and serves results — live
// progress documents per job (the same serialized /progress plumbing the
// CLIs use), rendered tables, and raw content-addressed blobs straight
// from the persistent result store.
//
// Service model:
//
//   - POST /jobs with a JSON sweep spec returns a job ID immediately. The
//     queue is bounded (503 when full) and submissions are rate-limited
//     per client with a token bucket (429 past the burst).
//   - The machine-wide internal/par budget of GOMAXPROCS tokens is the only
//     concurrency limit. A job starts when it takes a token, dequeued
//     highest priority first (FIFO within a priority), and holds that token
//     for its sweep's first worker until it ends; its extra sweep workers
//     lease tokens from the same budget. Concurrent jobs therefore split the
//     cores instead of oversubscribing them, and results are byte-identical
//     at every budget width.
//   - Repeated configurations — the bulk of production traffic — hit the
//     persistent store's memory or disk tier and return in microseconds;
//     the exact simulator runs only for genuinely novel cells. Concurrent
//     jobs racing on the same cell key coalesce through the store's
//     single-flight layer: one leader simulates, the rest share its exact
//     bytes (store.GetOrCompute, surfaced as store.singleflight.coalesced
//     in /metrics).
//   - Drain stops dequeuing, cancels queued jobs, and waits for every
//     running job — graceful SIGTERM is Drain plus http.Server.Shutdown
//     (cmd/sdserve wires both).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"scaledeep/internal/par"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

// Spec is the POST /jobs request body: a sweep grid plus service fields.
type Spec struct {
	Workloads   []string `json:"workloads"`
	Archs       []string `json:"archs"`
	Minibatches []int    `json:"minibatches"`
	Modes       []string `json:"modes"`
	Iterations  int      `json:"iterations,omitempty"`
	// Format selects the rendered result: "json" (default), "csv" or "text".
	Format string `json:"format,omitempty"`
	// Priority orders the queue (higher first, FIFO within equal values).
	Priority int `json:"priority,omitempty"`
	// Predict opts the job into the learned fast path: grid cells inside
	// the configured predictor's confidence gate are answered by the model
	// (rows labeled source=predicted) instead of simulated; everything
	// else — including every store hit, which always wins — runs the exact
	// path unchanged. 400 when the server has no predictor configured.
	Predict bool `json:"predict,omitempty"`
}

// maxJobCells bounds the grid one POST /jobs may ask for, 21× the 48-cell
// zoo job. A spec lists its axes, so a body of a few hundred bytes can
// multiply out to millions of cells; the product is checked before the
// grid is expanded.
const maxJobCells = 1024

// cells returns the number of grid cells sp expands to, capped at
// maxJobCells+1 so the product cannot overflow.
func (sp Spec) cells() int {
	n := 1
	for _, axis := range []int{len(sp.Workloads), len(sp.Archs), len(sp.Minibatches), len(sp.Modes)} {
		n *= min(axis, maxJobCells+1)
		n = min(n, maxJobCells+1)
	}
	return n
}

func (sp Spec) grid() sweep.Grid {
	return sweep.Grid{
		Workloads:   sp.Workloads,
		Archs:       sp.Archs,
		Minibatches: sp.Minibatches,
		Modes:       sp.Modes,
		Iterations:  sp.Iterations,
	}
}

// Config configures New.
type Config struct {
	// Store is the persistent result store; nil runs without persistence.
	Store *store.Store
	// VerifyStore samples store hits and re-simulates them (sweep.Options).
	VerifyStore bool
	// Predictor is the learned fast-path model (DESIGN.md §5h) offered to
	// jobs that set Spec.Predict; nil rejects such jobs with 400. Store
	// hits still always win, and predicted rows are never persisted.
	Predictor sweep.Predictor
	// MaxQueue bounds the job queue; 0 means 64.
	MaxQueue int
	// RatePerSec refills each client's submission bucket; 0 means 1/s.
	RatePerSec float64
	// Burst caps each client's bucket; 0 means 8.
	Burst int
	// MaxClients bounds the per-client rate-limit table: at the cap the
	// least-recently-seen client's bucket is evicted to admit a new one
	// (the evicted client re-enters later with a fresh burst, which only
	// errs in its favor). 0 means 1024.
	MaxClients int
	// Logger receives one JSON line per job lifecycle event (accepted,
	// started, done, failed, cancelled, evicted; cell progress at Debug).
	// nil disables structured logging.
	Logger *slog.Logger
	// FlightN bounds the flight recorder's recent-job ring (/statusz);
	// 0 means 64.
	FlightN int
	// MaxJobs bounds the in-memory job table: once exceeded, the oldest
	// terminal jobs (result and trace included) are evicted. Their summary
	// survives in the flight recorder. 0 means 256.
	MaxJobs int
	// Test hooks. now nil means time.Now; traceSpans bounds each trace
	// lane's simulator op spans per job (a cell's lifecycle spans are always
	// kept), and 0 means the telemetry default of 4096 per lane.
	now        func() time.Time
	traceSpans int
}

// JobState is one submitted job. Fields under the server mutex; the
// progress var has its own synchronization (it is written by the sweep's
// progress callback while handlers read it).
type JobState struct {
	ID       string
	Client   string
	Spec     Spec
	Priority int
	seq      int64

	state     string // queued | running | done | failed | cancelled
	errMsg    string
	result    []byte
	gridJobs  int
	submitted time.Time
	dequeued  time.Time
	prog      *telemetry.JSONVar
	trace     *telemetry.JobTrace // spans of a live job, nil once terminal
	traceDoc  *traceDoc           // set at terminal states
}

// traceDoc is a terminal job's Chrome trace document. The first GET
// /jobs/{id}/trace renders it, outside s.mu, and keeps the bytes; the
// render releases the job's span lanes. A trace nobody fetches keeps its
// spans until the job is evicted, and is never rendered.
type traceDoc struct {
	once  sync.Once
	trace *telemetry.JobTrace // nil once rendered
	data  []byte
}

// bytes renders the document on first use and returns the cached bytes.
func (d *traceDoc) bytes() []byte {
	d.once.Do(func() {
		// The encoder's error is always nil.
		d.data, _ = telemetry.MarshalChromeTraceMeta(d.trace.Assemble(), telemetry.TraceMeta{
			Process:      d.trace.JobID(),
			DroppedSpans: d.trace.Dropped(),
		})
		d.trace = nil
	})
	return d.data
}

// Server implements the daemon. Create with New, wire with Mux, run with
// Start, stop with Drain.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	flight *telemetry.FlightRecorder

	mu          sync.Mutex
	cond        *sync.Cond
	queue       jobQueue
	jobs        map[string]*JobState
	order       []string
	clients     map[string]*bucket
	clientClock int64
	nextSeq     int64
	running     int // jobs currently executing (the server.jobs.running gauge)
	drain       bool
	drainCh     chan struct{} // closed when draining begins (cancels token waits)
	runWG       sync.WaitGroup
}

// New builds a server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.RatePerSec == 0 {
		cfg.RatePerSec = 1
	}
	if cfg.Burst == 0 {
		cfg.Burst = 8
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = 256
	}
	if cfg.MaxClients == 0 {
		cfg.MaxClients = 1024
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:     cfg,
		reg:     telemetry.NewRegistry(),
		flight:  telemetry.NewFlightRecorder(cfg.FlightN),
		queue:   jobQueue{max: cfg.MaxQueue},
		jobs:    map[string]*JobState{},
		clients: map[string]*bucket{},
		drainCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// logJob emits one structured lifecycle event for a job.
func (s *Server) logJob(level slog.Level, event string, job *JobState, args ...any) {
	if s.cfg.Logger == nil {
		return
	}
	base := []any{"job", job.ID, "client", job.Client}
	s.cfg.Logger.Log(context.Background(), level, event, append(base, args...)...)
}

// specDigest compresses a spec into a compact human-readable identity for
// flight-recorder rows and log lines.
func specDigest(sp Spec) string {
	mbs := make([]string, len(sp.Minibatches))
	for i, mb := range sp.Minibatches {
		mbs[i] = fmt.Sprint(mb)
	}
	d := fmt.Sprintf("%s×%s×mb[%s]×%s",
		strings.Join(sp.Workloads, ","), strings.Join(sp.Archs, ","),
		strings.Join(mbs, ","), strings.Join(sp.Modes, ","))
	if sp.Iterations > 1 {
		d += fmt.Sprintf(" iters=%d", sp.Iterations)
	}
	if sp.Predict {
		d += " predict"
	}
	return d
}

// summarize builds the flight-recorder record for a terminal job. Callers
// hold s.mu.
func (s *Server) summarizeLocked(job *JobState, runMS, renderMS int64) telemetry.JobSummary {
	now := s.cfg.now()
	sum := telemetry.JobSummary{
		ID: job.ID, Client: job.Client, SpecDigest: specDigest(job.Spec),
		Outcome: job.state, Error: job.errMsg, Cells: job.gridJobs,
		Submitted: job.submitted,
		RunMS:     runMS, RenderMS: renderMS,
		TotalMS: now.Sub(job.submitted).Milliseconds(),
	}
	if !job.dequeued.IsZero() {
		sum.QueueMS = job.dequeued.Sub(job.submitted).Milliseconds()
	} else {
		sum.QueueMS = sum.TotalMS // cancelled while queued
	}
	return sum
}

// finishTraceLocked closes a terminal job's span timeline: it counts the
// spans the lanes dropped and leaves the timeline for GET /jobs/{id}/trace
// to render. Callers hold s.mu.
func (s *Server) finishTraceLocked(job *JobState) {
	if job.trace == nil {
		return
	}
	if d := job.trace.Dropped(); d > 0 {
		s.reg.Counter("server.trace.dropped_spans").Add(d)
	}
	job.traceDoc = &traceDoc{trace: job.trace}
	job.trace = nil
}

// evictLocked trims the job table to cfg.MaxJobs entries, dropping the
// oldest terminal jobs (their summaries survive in the flight recorder).
// Running and queued jobs are never evicted. Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		job := s.jobs[id]
		terminal := job.state == "done" || job.state == "failed" || job.state == "cancelled"
		if excess > 0 && terminal {
			delete(s.jobs, id)
			excess--
			s.reg.Counter("server.jobs.evicted").Inc()
			s.logJob(slog.LevelInfo, "job.evicted", job)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Start launches the job runner. Cancelling ctx begins a drain (queued
// jobs cancelled, the running job's sweep context cancelled).
func (s *Server) Start(ctx context.Context) {
	context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.drainLocked()
		s.mu.Unlock()
	})
	s.runWG.Add(1)
	go s.runLoop(ctx)
}

// drainLocked flips the server into draining mode and cancels every queued
// job. New submissions are rejected from this point (handleSubmit checks
// the flag); running jobs finish. Idempotent — Start's context hook and an
// explicit Drain may both fire. Callers hold s.mu.
func (s *Server) drainLocked() {
	if s.drain {
		return
	}
	s.drain = true
	close(s.drainCh) // cancels the dispatcher's wait for a budget token
	for {
		job := s.queue.dequeue()
		if job == nil {
			break
		}
		job.state = "cancelled"
		job.prog.Set([]byte(`{"state":"cancelled"}`))
		s.reg.Counter("server.jobs.cancelled").Inc()
		s.finishTraceLocked(job)
		s.flight.Record(s.summarizeLocked(job, 0, 0))
		s.logJob(slog.LevelWarn, "job.cancelled", job,
			"queued_ms", s.cfg.now().Sub(job.submitted).Milliseconds())
	}
	s.cond.Broadcast()
}

// Drain stops dequeuing, cancels every queued job, and blocks until every
// running job finishes — the SIGTERM half of graceful shutdown; the HTTP
// listener's own Shutdown handles in-flight responses.
func (s *Server) Drain() {
	s.mu.Lock()
	s.drainLocked()
	s.mu.Unlock()
	s.runWG.Wait()
}

// runLoop is the scheduler's dispatcher: it waits for a queued job, takes
// one token of the shared internal/par budget for the job's first sweep
// worker and then dequeues the highest-priority job, which holds the token
// until it ends (runJob). The budget is the only admission limit, so the
// live workers of all running jobs never exceed par.Workers().
func (s *Server) runLoop(ctx context.Context) {
	defer s.runWG.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.drain {
			s.cond.Wait()
		}
		s.mu.Unlock()

		// Wait for the token outside the lock so handlers stay responsive.
		// It comes when a running job ends or one of its leased sweep
		// workers finishes a cell. The dispatcher alone dequeues jobs, so
		// only a drain can empty the queue meanwhile, and a drain closes
		// drainCh, which cancels the wait. drainLocked has already
		// cancelled the queued jobs; running jobs drain through runWG.
		if !par.Acquire(s.drainCh) {
			return
		}
		s.mu.Lock()
		if s.drain {
			s.mu.Unlock()
			par.Release()
			return
		}
		job := s.queue.dequeue()
		job.state = "running"
		job.dequeued = s.cfg.now()
		s.running++
		if job.trace != nil {
			// The queue-wait span covers submit → dequeue on the job lane.
			job.trace.Context(telemetry.LaneJob, "job").
				Interval("queue.wait", job.submitted, job.dequeued)
		}
		s.logJob(slog.LevelInfo, "job.started", job,
			"cells", job.gridJobs,
			"queue_ms", job.dequeued.Sub(job.submitted).Milliseconds())
		s.runWG.Add(1)
		go s.runJob(ctx, job)
		s.mu.Unlock()
	}
}

// runJob executes one admitted job and returns its budget token when done.
func (s *Server) runJob(ctx context.Context, job *JobState) {
	defer s.runWG.Done()
	s.execute(ctx, job)
	par.Release()
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
}

// execute runs one job's sweep and records the outcome.
func (s *Server) execute(ctx context.Context, job *JobState) {
	start := s.cfg.now()
	reg := telemetry.NewRegistry()
	var jobTC telemetry.TraceContext
	if job.trace != nil {
		jobTC = job.trace.Context(telemetry.LaneJob, "job")
	}
	// The job's token covers the sweep's first worker, this goroutine;
	// extra workers lease tokens from the same budget.
	opts := sweep.Options{
		Metrics:     reg,
		Store:       s.cfg.Store,
		VerifyStore: s.cfg.VerifyStore,
		Trace:       job.trace,
		Progress: func(done, total int) {
			job.prog.Set([]byte(fmt.Sprintf(`{"state":"running","done":%d,"total":%d,"elapsed_ms":%d}`,
				done, total, s.cfg.now().Sub(start).Milliseconds())))
			s.logJob(slog.LevelDebug, "cell.done", job, "done", done, "total", total)
		},
	}
	if job.Spec.Predict {
		// handleSubmit already rejected predict jobs on a server without a
		// model, so this is non-nil for every job that reaches here.
		opts.Predictor = s.cfg.Predictor
	}
	endSweep := jobTC.Begin("sweep", telemetry.Attr{Key: "cells", Value: fmt.Sprint(job.gridJobs)})
	results, err := sweep.RunGrid(ctx, job.Spec.grid(), opts)
	endSweep(telemetry.Attr{Key: "outcome", Value: outcomeOf(err)})
	runMS := s.cfg.now().Sub(start).Milliseconds()
	var rendered []byte
	renderStart := s.cfg.now()
	if err == nil {
		endRender := jobTC.Begin("render", telemetry.Attr{Key: "format", Value: job.Spec.Format})
		rendered, err = renderResults(job.Spec.Format, results)
		endRender(telemetry.Attr{Key: "outcome", Value: outcomeOf(err)})
	}
	renderMS := s.cfg.now().Sub(renderStart).Milliseconds()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		job.state = "failed"
		job.errMsg = err.Error()
		job.prog.Set([]byte(fmt.Sprintf(`{"state":"failed","elapsed_ms":%d}`,
			s.cfg.now().Sub(start).Milliseconds())))
		s.reg.Counter("server.jobs.failed").Inc()
		s.finishTraceLocked(job)
		s.flight.Record(s.summarizeLocked(job, runMS, renderMS))
		s.logJob(slog.LevelError, "job.failed", job,
			"error", job.errMsg, "duration_ms", s.cfg.now().Sub(job.submitted).Milliseconds())
		s.evictLocked()
		return
	}
	job.state = "done"
	job.result = rendered
	job.prog.Set([]byte(fmt.Sprintf(`{"state":"done","done":%d,"total":%d,"elapsed_ms":%d}`,
		len(results), len(results), s.cfg.now().Sub(start).Milliseconds())))
	s.reg.Counter("server.jobs.completed").Inc()
	// Job telemetry merges under the server registry so /metrics shows the
	// aggregate sweep activity across the daemon's lifetime.
	endMerge := jobTC.Begin("merge")
	s.reg.MergeFrom(reg)
	endMerge()
	s.finishTraceLocked(job)
	s.flight.Record(s.summarizeLocked(job, runMS, renderMS))
	s.logJob(slog.LevelInfo, "job.done", job,
		"cells", len(results),
		"duration_ms", s.cfg.now().Sub(job.submitted).Milliseconds())
	s.evictLocked()
}

// outcomeOf renders an error as a span outcome attribute value.
func outcomeOf(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

func renderResults(format string, results []sweep.Result) ([]byte, error) {
	var buf strings.Builder
	switch format {
	case "", "json":
		if err := sweep.WriteJSON(&buf, results); err != nil {
			return nil, err
		}
	case "csv":
		if err := sweep.WriteCSV(&buf, results); err != nil {
			return nil, err
		}
	case "text":
		buf.WriteString(sweep.FormatText(results))
	default:
		return nil, fmt.Errorf("server: unknown format %q", format)
	}
	return []byte(buf.String()), nil
}

func resultContentType(format string) string {
	switch format {
	case "csv":
		return "text/csv"
	case "text":
		return "text/plain; charset=utf-8"
	default:
		return "application/json"
	}
}

// Mux returns the daemon's HTTP surface: the job API plus the standard
// observability endpoints (/metrics /trace /profile /statusz /debug/pprof/),
// wrapped with per-endpoint request telemetry (latency histograms, request
// counters, the inflight gauge).
func (s *Server) Mux() http.Handler {
	mux := telemetry.NewHTTPMux(s.reg, nil, nil,
		telemetry.WithFlight(s.flight),
		telemetry.WithScrapeHook(func(reg *telemetry.Registry) { s.refreshScrapeGauges(reg) }),
	)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /results/{key}", s.handleResultBlob)
	mux.HandleFunc("GET /store", s.handleStoreStats)
	return telemetry.Instrument(s.reg, mux)
}

// refreshScrapeGauges recomputes the gauges derived from server state just
// before a /metrics scrape. It is their only writer, so a scrape always
// reads current values and no event path has to keep them in step.
func (s *Server) refreshScrapeGauges(reg *telemetry.Registry) {
	s.mu.Lock()
	reg.Gauge("server.queue.depth").Set(float64(s.queue.Len()))
	reg.Gauge("server.jobs.running").Set(float64(s.running))
	reg.Gauge("server.jobs.tracked").Set(float64(len(s.jobs)))
	reg.Gauge("server.clients.tracked").Set(float64(len(s.clients)))
	s.mu.Unlock()
	if s.cfg.Predictor != nil {
		// Lifetime fraction of grid cells answered by the learned fast
		// path across every predict-enabled job (job registries merge into
		// the server registry at completion).
		var hits, fallbacks int64
		for _, c := range reg.Snapshot().Counters {
			switch c.Name {
			case "sweep.predict.hits":
				hits += c.Value
			case "sweep.predict.fallbacks":
				fallbacks += c.Value
			}
		}
		if total := hits + fallbacks; total > 0 {
			reg.Gauge("predict.hit_rate").Set(float64(hits) / float64(total))
		} else {
			reg.Gauge("predict.hit_rate").Set(0)
		}
	}
	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		hits := stats.MemHits + stats.DiskHits
		if total := hits + stats.Misses; total > 0 {
			reg.Gauge("store.hit_rate").Set(float64(hits) / float64(total))
		} else {
			reg.Gauge("store.hit_rate").Set(0)
		}
		reg.Gauge("store.blobs").Set(float64(st.Len()))
		reg.Gauge("store.size_bytes").Set(float64(st.SizeBytes()))
		// Cross-job single-flight activity: payloads shared from a concurrent
		// leader instead of re-simulated (DESIGN.md §5i).
		reg.Gauge("store.singleflight.coalesced").Set(float64(stats.Coalesced))
	}
	// Process-wide simulator machine pool (DESIGN.md §5d): machines built
	// versus handed out again after a Reset. Scrape-time gauges only — job
	// registries, and so job metrics and stored blobs, never see them.
	built, reused := sweep.MachineCounts()
	reg.Gauge("sweep.machines.built").Set(float64(built))
	reg.Gauge("sweep.machines.reused").Set(float64(reused))
}

// handleJobTrace serves a terminal job's assembled span timeline as a
// Perfetto-loadable Chrome trace document, rendered on the first request.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var (
		state string
		doc   *traceDoc
	)
	if ok {
		state, doc = job.state, job.traceDoc
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if doc == nil {
		writeError(w, http.StatusNotFound, "job is "+state+", trace not available")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc.bytes())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// clientID identifies the submitter for rate limiting: the X-Client header
// when present, else the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// touchClientLocked returns the client's rate-limit bucket, creating it on
// first sight and stamping it with the access clock. The table is bounded:
// creating a bucket at cfg.MaxClients first evicts the least-recently-seen
// client (smallest clock), so an open population of submitters can never
// grow the map without bound. Callers hold s.mu.
func (s *Server) touchClientLocked(client string) *bucket {
	b := s.clients[client]
	if b == nil {
		if len(s.clients) >= s.cfg.MaxClients {
			var (
				oldest      string
				oldestClock int64
			)
			for id, ob := range s.clients {
				if oldest == "" || ob.clock < oldestClock {
					oldest, oldestClock = id, ob.clock
				}
			}
			delete(s.clients, oldest)
			s.reg.Counter("server.clients.evicted").Inc()
		}
		b = &bucket{}
		s.clients[client] = b
	}
	s.clientClock++
	b.clock = s.clientClock
	return b
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The whole body is the spec: bytes after its JSON value are an error.
	var spec Spec
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &spec)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	if spec.cells() > maxJobCells {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("spec expands to more than %d grid cells", maxJobCells))
		return
	}
	gridJobs, err := spec.grid().Jobs()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, rerr := renderResults(spec.Format, nil); rerr != nil {
		writeError(w, http.StatusBadRequest, rerr.Error())
		return
	}
	if spec.Predict && s.cfg.Predictor == nil {
		writeError(w, http.StatusBadRequest, "predict requested but no predictor model is configured (start the server with -predict)")
		return
	}
	client := clientID(r)

	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		// A draining daemon is going away; point clients at its replacement's
		// usual startup window rather than a tight retry loop.
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	b := s.touchClientLocked(client)
	if !b.take(s.cfg.now(), s.cfg.RatePerSec, s.cfg.Burst) {
		retry := b.retryAfter(s.cfg.RatePerSec)
		s.reg.Counter("server.jobs.rejected.rate_limited").Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprint(retry))
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded for client "+client)
		return
	}
	s.nextSeq++
	job := &JobState{
		ID:        fmt.Sprintf("job-%06d", s.nextSeq),
		Client:    client,
		Spec:      spec,
		Priority:  spec.Priority,
		seq:       s.nextSeq,
		state:     "queued",
		gridJobs:  len(gridJobs),
		submitted: s.cfg.now(),
		prog: telemetry.NewJSONVar(
			fmt.Sprintf(`{"state":"queued","done":0,"total":%d}`, len(gridJobs))),
	}
	// The job trace is born at submit so its time base covers queue wait.
	job.trace = telemetry.NewJobTrace(job.ID, s.cfg.traceSpans, s.cfg.now)
	if !s.queue.enqueue(job) {
		s.reg.Counter("server.jobs.rejected.queue_full").Inc()
		s.mu.Unlock()
		// Queue pressure clears at job-completion cadence, not token-refill
		// cadence — a short fixed backoff is the honest hint.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "job queue full")
		return
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.reg.Counter("server.jobs.submitted").Inc()
	s.logJob(slog.LevelInfo, "job.accepted", job,
		"cells", job.gridJobs, "priority", job.Priority, "spec", specDigest(spec))
	s.cond.Signal()
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         job.ID,
		"state":      "queued",
		"jobs":       len(gridJobs),
		"status_url": "/jobs/" + job.ID,
		"result_url": "/jobs/" + job.ID + "/result",
	})
}

// jobDoc is the GET /jobs/{id} response shape (and one row of GET /jobs).
type jobDoc struct {
	ID        string          `json:"id"`
	Client    string          `json:"client"`
	State     string          `json:"state"`
	Priority  int             `json:"priority"`
	Jobs      int             `json:"jobs"`
	AgeMS     int64           `json:"age_ms"`
	Progress  json.RawMessage `json:"progress"`
	Error     string          `json:"error,omitempty"`
	ResultURL string          `json:"result_url,omitempty"`
	TraceURL  string          `json:"trace_url,omitempty"`
}

// docLocked renders a job's status document. now stamps the job's age so a
// /jobs listing shows how long each entry has been in the system. Callers
// hold s.mu.
func (j *JobState) docLocked(now time.Time) jobDoc {
	doc := jobDoc{
		ID:       j.ID,
		Client:   j.Client,
		State:    j.state,
		Priority: j.Priority,
		Jobs:     j.gridJobs,
		AgeMS:    now.Sub(j.submitted).Milliseconds(),
		Error:    j.errMsg,
	}
	if prog, err := j.prog.Get(); err == nil {
		doc.Progress = json.RawMessage(prog)
	}
	if j.state == "done" {
		doc.ResultURL = "/jobs/" + j.ID + "/result"
	}
	if j.traceDoc != nil {
		doc.TraceURL = "/jobs/" + j.ID + "/trace"
	}
	return doc
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var doc jobDoc
	if ok {
		doc = job.docLocked(s.cfg.now())
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleList serves the job table in submission order: every tracked job's
// id, client, state, priority, cell count and age. ?state= narrows it to
// one lifecycle state ("queued", "running", "done", "failed", "cancelled"),
// or "active" for queued-plus-running — the operator's what-is-the-daemon-
// doing-right-now view of the concurrent scheduler.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("state")
	switch filter {
	case "", "active", "queued", "running", "done", "failed", "cancelled":
	default:
		writeError(w, http.StatusBadRequest, "unknown state filter "+filter)
		return
	}
	now := s.cfg.now()
	s.mu.Lock()
	docs := make([]jobDoc, 0, len(s.order))
	for _, id := range s.order {
		job := s.jobs[id]
		switch filter {
		case "":
		case "active":
			if job.state != "queued" && job.state != "running" {
				continue
			}
		default:
			if job.state != filter {
				continue
			}
		}
		docs = append(docs, job.docLocked(now))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, docs)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var (
		state  string
		result []byte
		format string
	)
	if ok {
		state, result, format = job.state, job.result, job.Spec.Format
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if state != "done" {
		writeError(w, http.StatusNotFound, "job is "+state+", result not available")
		return
	}
	w.Header().Set("Content-Type", resultContentType(format))
	w.Write(result)
}

// handleResultBlob serves a raw store blob — the content-addressed fast
// path for clients that compute keys themselves or remember them from a
// previous response.
func (s *Server) handleResultBlob(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusServiceUnavailable, "no result store configured")
		return
	}
	payload, ok, err := s.cfg.Store.Get(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no such result")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeJSON(w, http.StatusOK, map[string]any{"configured": false})
		return
	}
	st := s.cfg.Store.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"configured": true,
		"dir":        s.cfg.Store.Dir(),
		"blobs":      s.cfg.Store.Len(),
		"size_bytes": s.cfg.Store.SizeBytes(),
		"mem_hits":   st.MemHits,
		"disk_hits":  st.DiskHits,
		"misses":     st.Misses,
		"puts":       st.Puts,
		"evictions":  st.Evictions,
		"corrupt":    st.Corrupt,
		"coalesced":  st.Coalesced,
	})
}

// queueDepth reports the current queue length (tests).
func (s *Server) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len()
}
