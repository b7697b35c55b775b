package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the live observability endpoint: an http.ServeMux exposing
// the metrics registry, a run's JobTrace, a pluggable profile document,
// and the stdlib pprof handlers — so a long simulation can be inspected
// while it runs (`sdsim -serve :6060`).

// ProfileFunc supplies the current bottleneck-profile JSON for /profile.
// It is called on every request and may return an evolving document.
type ProfileFunc func() ([]byte, error)

// JSONVar is a concurrency-safe holder for a JSON document that becomes
// available mid-run: Get serves a placeholder until Set publishes the real
// thing. Its Get method satisfies ProfileFunc.
type JSONVar struct {
	mu          sync.Mutex
	data        []byte
	placeholder []byte
}

// NewJSONVar builds a holder whose Get returns the placeholder object until
// Set is called.
func NewJSONVar(placeholder string) *JSONVar {
	return &JSONVar{placeholder: []byte(placeholder)}
}

// Set publishes the document.
func (v *JSONVar) Set(data []byte) {
	v.mu.Lock()
	v.data = data
	v.mu.Unlock()
}

// Get returns the published document, or the placeholder before Set.
func (v *JSONVar) Get() ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.data == nil {
		return v.placeholder, nil
	}
	return v.data, nil
}

// HandleJSON registers a JSON document endpoint on an observability mux —
// e.g. a sweep's live /progress document. fn follows the ProfileFunc
// contract and may return an evolving document; a nil fn serves a constant
// placeholder.
func HandleJSON(mux *http.ServeMux, path string, fn ProfileFunc) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if fn == nil {
			json.NewEncoder(w).Encode(map[string]string{"state": "unavailable"})
			return
		}
		data, err := fn()
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		w.Write(data)
	})
}

// MuxOption customises NewHTTPMux beyond the three core endpoints.
type MuxOption func(*muxConfig)

type muxConfig struct {
	scrapeHook func(*Registry)
	flight     *FlightRecorder
}

// WithScrapeHook registers a function called with the registry just before
// every /metrics scrape — the place to refresh derived gauges (store
// hit-rate, queue depth) so scraped values are current rather than
// last-event-stale.
func WithScrapeHook(fn func(*Registry)) MuxOption {
	return func(c *muxConfig) { c.scrapeHook = fn }
}

// WithFlight serves the flight recorder's recent-job table at /statusz.
func WithFlight(fr *FlightRecorder) MuxOption {
	return func(c *muxConfig) { c.flight = fr }
}

// wantsOpenMetrics decides the /metrics representation: OpenMetrics text
// when the client asks for it via ?format=openmetrics (or "om", or "text")
// or an Accept header naming application/openmetrics-text or text/plain;
// JSON (the historical format) otherwise.
func wantsOpenMetrics(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "openmetrics", "om", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/openmetrics-text") ||
		strings.Contains(accept, "text/plain")
}

// NewHTTPMux builds the observability endpoint:
//
//	/metrics  — registry snapshot: JSON by default, OpenMetrics text under
//	            content negotiation (Accept: application/openmetrics-text
//	            or ?format=openmetrics)
//	/trace    — the JobTrace's spans as Chrome trace-event JSON
//	            (Perfetto-loadable)
//	/profile  — whatever profileFn returns (JSON), e.g. the sdprof report
//	/statusz  — recent-job flight recorder (with WithFlight)
//	/debug/pprof/ — stdlib runtime profiling
//
// Any argument may be nil; the endpoint then serves an empty-but-valid JSON
// document. Counters and the JobTrace are safe to read concurrently with
// a running producer, so the mux can be served while a simulation is in
// flight.
func NewHTTPMux(reg *Registry, tr *JobTrace, profileFn ProfileFunc, opts ...MuxOption) *http.ServeMux {
	var cfg muxConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		src := reg
		if src == nil {
			src = NewRegistry()
		}
		if tr != nil {
			// Surface the trace's dropped-span count as a monotonic counter;
			// RaiseTo never lowers it, so concurrent scrapes are safe.
			src.Counter("telemetry.trace.dropped_spans").RaiseTo(tr.Dropped())
		}
		if cfg.scrapeHook != nil {
			cfg.scrapeHook(src)
		}
		if wantsOpenMetrics(r) {
			w.Header().Set("Content-Type", OpenMetricsContentType)
			if err := WriteOpenMetrics(w, src.Snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := src.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var spans []Span
		var meta TraceMeta
		if tr != nil {
			spans = tr.Assemble()
			meta.DroppedSpans = tr.Dropped()
		}
		if err := WriteChromeTraceMeta(w, spans, meta); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	HandleJSON(mux, "/profile", profileFn)
	if cfg.flight != nil {
		mux.Handle("/statusz", cfg.flight)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HTTPLatencyBuckets are the upper bounds (seconds) for per-endpoint
// request-latency histograms: sub-millisecond scrapes through multi-minute
// sweep jobs.
var HTTPLatencyBuckets = []float64{
	0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300,
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// Instrument wraps mux with per-endpoint request telemetry:
//
//	http.request.seconds{route=...}        latency histogram per route pattern
//	http.requests{route=...,status=...}    request counter
//	http.inflight                          gauge of concurrently-open requests
//
// The route label is the mux's registered pattern (via mux.Handler, so
// /jobs/{id} stays one label value instead of one per job), "unmatched" for
// requests no pattern claims. A nil registry returns mux unchanged.
func Instrument(reg *Registry, mux *http.ServeMux) http.Handler {
	if reg == nil {
		return mux
	}
	inflight := reg.Gauge("http.inflight")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := "unmatched"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		inflight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			inflight.Add(-1)
			dur := time.Since(start).Seconds()
			reg.Histogram("http.request.seconds", HTTPLatencyBuckets,
				Label{Key: "route", Value: route}).Observe(dur)
			reg.Counter("http.requests",
				Label{Key: "route", Value: route},
				Label{Key: "status", Value: strconv.Itoa(sw.status)}).Inc()
		}()
		mux.ServeHTTP(sw, r)
	})
}

// BackgroundServer is an HTTP server running in a background goroutine
// with a graceful shutdown path — the lifecycle behind every CLI -serve
// flag. The old pattern (`go http.Serve(ln, mux)` + `select {}`) died on
// SIGINT with in-flight responses cut mid-body; Shutdown stops accepting,
// drains active requests up to a grace period, then returns.
type BackgroundServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan error
}

// ServeBackground listens on addr and serves mux in a background
// goroutine. The returned server's Addr reports the bound address (useful
// with ":0").
func ServeBackground(addr string, mux http.Handler) (*BackgroundServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	b := &BackgroundServer{
		srv:  &http.Server{Handler: mux},
		ln:   ln,
		done: make(chan error, 1),
	}
	go func() {
		err := b.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		b.done <- err
	}()
	return b, nil
}

// Addr returns the bound listen address.
func (b *BackgroundServer) Addr() string { return b.ln.Addr().String() }

// Shutdown gracefully drains the server: no new connections, in-flight
// requests finish until ctx expires, then the serve goroutine's exit error
// (if any) is returned.
func (b *BackgroundServer) Shutdown(ctx context.Context) error {
	err := b.srv.Shutdown(ctx)
	if serr := <-b.done; err == nil {
		err = serr
	}
	return err
}

// ShutdownOnSignal blocks until SIGINT or SIGTERM (or until ctx is
// cancelled, whichever first) and then drains the server with the given
// grace period — the CLI stay-up phase: "endpoints stay up, Ctrl-C to
// drain and exit".
func (b *BackgroundServer) ShutdownOnSignal(ctx context.Context, grace time.Duration) error {
	sctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-sctx.Done()
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return b.Shutdown(dctx)
}
