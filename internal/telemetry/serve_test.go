package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

func wantJSON(t *testing.T, resp *http.Response, body []byte, path string) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type %q, want application/json", path, ct)
	}
	if !json.Valid(body) {
		t.Errorf("GET %s: body is not valid JSON: %s", path, body)
	}
}

func TestHTTPMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim.flops").Add(42)
	tr := NewJobTrace("run", 8, nil)
	tr.Context(0, "").RecordSpan(Span{Track: "tile", Name: "NDCONV", Start: 0, Dur: 10})
	pv := NewJSONVar(`{"state":"running"}`)

	srv := httptest.NewServer(NewHTTPMux(reg, tr, pv.Get))
	defer srv.Close()

	resp, body := get(t, srv, "/metrics")
	wantJSON(t, resp, body, "/metrics")
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "sim.flops" && c.Value == 42 {
			found = true
		}
	}
	if !found {
		t.Errorf("/metrics missing sim.flops=42: %s", body)
	}

	resp, body = get(t, srv, "/trace")
	wantJSON(t, resp, body, "/trace")
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(events) == 0 {
		t.Error("/trace returned no events for a non-empty span buffer")
	}

	// /profile serves the placeholder until Set, then the published report.
	resp, body = get(t, srv, "/profile")
	wantJSON(t, resp, body, "/profile")
	var state map[string]string
	if err := json.Unmarshal(body, &state); err != nil || state["state"] != "running" {
		t.Errorf("/profile placeholder = %s, want {\"state\":\"running\"}", body)
	}
	pv.Set([]byte(`{"workload":"x"}`))
	resp, body = get(t, srv, "/profile")
	wantJSON(t, resp, body, "/profile")
	var doc map[string]string
	if err := json.Unmarshal(body, &doc); err != nil || doc["workload"] != "x" {
		t.Errorf("/profile after Set = %s, want the published document", body)
	}

	resp, body = get(t, srv, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("/debug/pprof/: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

func TestHTTPMuxNilSources(t *testing.T) {
	srv := httptest.NewServer(NewHTTPMux(nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/trace", "/profile"} {
		resp, body := get(t, srv, path)
		wantJSON(t, resp, body, path)
	}
}

// TestBackgroundServerDrainsInFlight pins the graceful-shutdown contract:
// a response in flight when Shutdown starts is delivered whole, and new
// connections are refused afterwards.
func TestBackgroundServerDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.Write([]byte("complete response body"))
	})
	bs, err := ServeBackground("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + bs.Addr() + "/slow")
		if err != nil {
			got <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{body, err}
	}()

	<-started
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- bs.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request, not kill it.
	release <- struct{}{}
	r := <-got
	if r.err != nil || string(r.body) != "complete response body" {
		t.Fatalf("in-flight response truncated by shutdown: body=%q err=%v", r.body, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + bs.Addr() + "/slow"); err == nil {
		t.Fatal("server accepted a connection after shutdown")
	}
}

func TestHTTPMuxMetricsContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim.flops").Add(7)
	srv := httptest.NewServer(NewHTTPMux(reg, nil, nil))
	defer srv.Close()

	// Default stays JSON (backwards compatible).
	resp, body := get(t, srv, "/metrics")
	wantJSON(t, resp, body, "/metrics")

	// ?format=openmetrics switches to the text exposition.
	resp, body = get(t, srv, "/metrics?format=openmetrics")
	if ct := resp.Header.Get("Content-Type"); ct != OpenMetricsContentType {
		t.Errorf("openmetrics Content-Type = %q", ct)
	}
	fams, err := ParseOpenMetrics(body)
	if err != nil {
		t.Fatalf("/metrics?format=openmetrics is not valid OpenMetrics: %v\n%s", err, body)
	}
	found := false
	for _, f := range fams {
		if f.Name == "sim_flops" && f.Type == "counter" && f.Samples[0].Value == 7 {
			found = true
		}
	}
	if !found {
		t.Errorf("openmetrics exposition missing sim_flops: %s", body)
	}

	// Accept header negotiation.
	req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	aresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	abody, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if _, err := ParseOpenMetrics(abody); err != nil {
		t.Errorf("Accept-negotiated exposition invalid: %v", err)
	}
	// Explicit ?format=json wins over Accept.
	req, _ = http.NewRequest("GET", srv.URL+"/metrics?format=json", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	jresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if !json.Valid(jbody) {
		t.Errorf("?format=json body is not JSON: %s", jbody)
	}
}

func TestHTTPMuxSurfacesDroppedSpans(t *testing.T) {
	reg := NewRegistry()
	tr := NewJobTrace("run", 2, nil)
	lane := tr.Context(0, "")
	for i := 0; i < 5; i++ {
		lane.RecordSpan(Span{Name: "s", Start: int64(i)})
	}
	srv := httptest.NewServer(NewHTTPMux(reg, tr, nil))
	defer srv.Close()

	// scrapeDropped reads telemetry_trace_dropped_spans off one /metrics
	// scrape; it reports errors rather than failing, so goroutines can call
	// it.
	scrapeDropped := func() (float64, error) {
		resp, err := http.Get(srv.URL + "/metrics?format=openmetrics")
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		fams, err := ParseOpenMetrics(body)
		if err != nil {
			return 0, err
		}
		for _, f := range fams {
			if f.Name == "telemetry_trace_dropped_spans" {
				return f.Samples[0].Value, nil
			}
		}
		return 0, fmt.Errorf("no telemetry_trace_dropped_spans in %s", body)
	}

	// /metrics raises telemetry.trace.dropped_spans to the trace's count.
	// Concurrent scrapes share the registry, and every one must read the
	// count exactly: no scrape lowers the counter or adds to it twice.
	const scrapes = 16
	var (
		wg      sync.WaitGroup
		dropped [scrapes]float64
		errs    [scrapes]error
	)
	for i := range dropped {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dropped[i], errs[i] = scrapeDropped()
		}(i)
	}
	wg.Wait()
	for i := range dropped {
		if errs[i] != nil {
			t.Fatalf("scrape %d: %v", i, errs[i])
		}
		if dropped[i] != 3 {
			t.Errorf("scrape %d: telemetry_trace_dropped_spans = %v, want 3", i, dropped[i])
		}
	}

	// /trace carries the dropped count as a metadata event.
	_, body := get(t, srv, "/trace")
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatal(err)
	}
	foundMeta := false
	for _, ev := range events {
		if ev["name"] == "trace.dropped_spans" && ev["ph"] == "M" {
			args := ev["args"].(map[string]any)
			if args["dropped"] == "3" {
				foundMeta = true
			}
		}
	}
	if !foundMeta {
		t.Errorf("/trace missing trace.dropped_spans metadata: %s", body)
	}

	// Spans dropped after a scrape show in the next one.
	for i := 0; i < 4; i++ {
		lane.RecordSpan(Span{Name: "s", Start: int64(5 + i)})
	}
	if d, err := scrapeDropped(); err != nil || d != 7 {
		t.Errorf("after 4 more drops: telemetry_trace_dropped_spans = %v (err %v), want 7", d, err)
	}
}

func TestHTTPMuxScrapeHookAndStatusz(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(4)
	fr.Record(JobSummary{ID: "job-9", Outcome: "done"})
	hooked := 0
	srv := httptest.NewServer(NewHTTPMux(reg, nil, nil,
		WithScrapeHook(func(r *Registry) {
			hooked++
			r.Gauge("store.hit_rate").Set(0.75)
		}),
		WithFlight(fr),
	))
	defer srv.Close()

	_, body := get(t, srv, "/metrics?format=openmetrics")
	if hooked != 1 {
		t.Errorf("scrape hook calls = %d, want 1", hooked)
	}
	fams, err := ParseOpenMetrics(body)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range fams {
		if f.Name == "store_hit_rate" && f.Samples[0].Value == 0.75 {
			found = true
		}
	}
	if !found {
		t.Errorf("scrape-hook gauge missing: %s", body)
	}

	resp, body := get(t, srv, "/statusz")
	wantJSON(t, resp, body, "/statusz")
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["retained"] != float64(1) {
		t.Errorf("/statusz = %s", body)
	}
}

func TestInstrumentRecordsPerEndpointTelemetry(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("GET /missing", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusNotFound)
	})
	srv := httptest.NewServer(Instrument(reg, mux))
	defer srv.Close()

	for _, p := range []string{"/jobs/a", "/jobs/b", "/missing"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	snap := reg.Snapshot()
	counts := map[string]int64{}
	for _, c := range snap.Counters {
		counts[fmt.Sprintf("%s|%s|%s", c.Name, c.Labels["route"], c.Labels["status"])] = c.Value
	}
	// Both /jobs/{id} hits collapse onto one route label.
	if counts["http.requests|GET /jobs/{id}|200"] != 2 {
		t.Errorf("request counts = %v", counts)
	}
	if counts["http.requests|GET /missing|404"] != 1 {
		t.Errorf("request counts = %v", counts)
	}
	var histN int64
	for _, h := range snap.Histograms {
		if h.Name == "http.request.seconds" && h.Labels["route"] == "GET /jobs/{id}" {
			histN = h.Count
		}
	}
	if histN != 2 {
		t.Errorf("latency histogram count = %d, want 2", histN)
	}
	for _, g := range snap.Gauges {
		if g.Name == "http.inflight" && g.Value != 0 {
			t.Errorf("http.inflight after requests = %v, want 0", g.Value)
		}
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("inflight")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if v := g.Value(); v != 0 {
		t.Errorf("gauge after balanced adds = %v, want 0", v)
	}
}

func TestHTTPMuxProfileError(t *testing.T) {
	srv := httptest.NewServer(NewHTTPMux(nil, nil, func() ([]byte, error) {
		return nil, fmt.Errorf("boom")
	}))
	defer srv.Close()
	resp, body := get(t, srv, "/profile")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("/profile with failing source: status %d, want 500", resp.StatusCode)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] != "boom" {
		t.Errorf("/profile error body = %s", body)
	}
}
