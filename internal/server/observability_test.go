package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
)

// chromeEvent mirrors the Chrome trace-event fields the tests inspect.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

func TestServerJobTraceByteIdenticalAcrossWorkers(t *testing.T) {
	// A constant clock zeroes every wall-clock span timestamp, so the trace
	// document becomes a pure function of the job spec — which is what makes
	// byte-identity across worker counts checkable at all. Simulator spans
	// carry cycle timestamps and are deterministic regardless.
	trace := func(workers int) []byte {
		fixed := time.Unix(1_700_000_000, 0)
		s := New(Config{SweepWorkers: workers, now: func() time.Time { return fixed }})
		ctx, cancel := context.WithCancel(context.Background())
		s.Start(ctx)
		ts := httptest.NewServer(s.Mux())
		defer func() {
			ts.Close()
			cancel()
			s.Drain()
		}()
		_, doc := submit(t, ts, testSpec(), "trace")
		id := doc["id"].(string)
		final := waitDone(t, ts, id)
		if final.State != "done" {
			t.Fatalf("workers=%d: job state %q (error %q)", workers, final.State, final.Error)
		}
		if final.TraceURL != "/jobs/"+id+"/trace" {
			t.Errorf("workers=%d: trace_url = %q", workers, final.TraceURL)
		}
		resp, data := getBody(t, ts, "/jobs/"+id+"/trace")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: trace status %d", workers, resp.StatusCode)
		}
		return data
	}

	one := trace(1)
	var events []chromeEvent
	if err := json.Unmarshal(one, &events); err != nil {
		t.Fatalf("trace is not a Chrome event array: %v", err)
	}
	// One coherent trace: process metadata names the job, the job lane holds
	// queue-wait/sweep/render/merge, and each cell contributes a simulate
	// span plus the simulator's per-tile op spans.
	tracks := map[int]string{}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.Tid] = ev.Args["name"]
		}
	}
	var haveProcess, haveQueue, haveSweep, haveRender, haveMerge, haveSimulate, haveSimOps bool
	for _, ev := range events {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			haveProcess = ev.Args["name"] == "job-000001"
		case ev.Ph != "X":
			continue
		case ev.Name == "queue.wait" && tracks[ev.Tid] == "job":
			haveQueue = true
		case ev.Name == "sweep" && tracks[ev.Tid] == "job":
			haveSweep = true
		case ev.Name == "render" && tracks[ev.Tid] == "job":
			haveRender = true
		case ev.Name == "merge" && tracks[ev.Tid] == "job":
			haveMerge = true
		case ev.Name == "simulate" && strings.HasPrefix(tracks[ev.Tid], "cell/"):
			haveSimulate = true
		case strings.Contains(tracks[ev.Tid], "/comp["):
			haveSimOps = true
		}
	}
	if !haveProcess || !haveQueue || !haveSweep || !haveRender || !haveMerge || !haveSimulate || !haveSimOps {
		t.Errorf("trace missing spans: process=%v queue=%v sweep=%v render=%v merge=%v simulate=%v simops=%v",
			haveProcess, haveQueue, haveSweep, haveRender, haveMerge, haveSimulate, haveSimOps)
	}

	for _, workers := range []int{2, 4} {
		if got := trace(workers); !bytes.Equal(got, one) {
			t.Errorf("trace at %d workers differs from 1 worker (%d vs %d bytes)", workers, len(got), len(one))
		}
	}
}

// TestServerJobTraceKeepsCellSpansPastLaneBound: with trace lanes far
// smaller than one cell's simulator op spans, a cold job's trace still
// holds every cell's simulate, store.put and store.flight spans, which end
// after the op spans have filled the lane.
func TestServerJobTraceKeepsCellSpansPastLaneBound(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := startServer(t, Config{Store: st, TraceSpans: 16})
	_, doc := submit(t, ts, testSpec(), "bounded-trace")
	id := doc["id"].(string)
	if final := waitDone(t, ts, id); final.State != "done" {
		t.Fatalf("job state %q (error %q)", final.State, final.Error)
	}
	_, data := getBody(t, ts, "/jobs/"+id+"/trace")
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a Chrome event array: %v", err)
	}
	tracks := map[int]string{}
	dropped := false
	for _, ev := range events {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			tracks[ev.Tid] = ev.Args["name"]
		case ev.Ph == "M" && ev.Name == "trace.dropped_spans":
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("op spans never overflowed the 16-span lanes; the test no longer exercises the bound")
	}
	cells := map[string]map[string]bool{}
	for _, ev := range events {
		track := tracks[ev.Tid]
		if ev.Ph != "X" || !strings.HasPrefix(track, "cell/") || strings.Contains(track, "/comp[") {
			continue
		}
		if cells[track] == nil {
			cells[track] = map[string]bool{}
		}
		cells[track][ev.Name] = true
	}
	if len(cells) != 2 {
		t.Fatalf("lifecycle spans on %d cell tracks, want 2: %v", len(cells), cells)
	}
	for track, names := range cells {
		for _, want := range []string{"simulate", "store.put", "store.flight"} {
			if !names[want] {
				t.Errorf("%s: %s span missing (have %v)", track, want, names)
			}
		}
	}
}

func TestServerStatuszAndEviction(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := startServer(t, Config{Store: st, Burst: 16, MaxJobs: 2})

	var ids []string
	for i := 0; i < 3; i++ {
		_, doc := submit(t, ts, testSpec(), "evict")
		id := doc["id"].(string)
		final := waitDone(t, ts, id)
		if final.State != "done" {
			t.Fatalf("job %d state %q (error %q)", i, final.State, final.Error)
		}
		ids = append(ids, id)
	}

	// The oldest terminal job is evicted from the live table...
	var e map[string]string
	if resp := getJSON(t, ts, "/jobs/"+ids[0], &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status = %d, want 404", resp.StatusCode)
	}
	var list []jobDoc
	getJSON(t, ts, "/jobs", &list)
	if len(list) != 2 {
		t.Errorf("job list holds %d jobs, want 2 after eviction", len(list))
	}

	// ...but its post-mortem summary survives in /statusz.
	var statusz struct {
		Retained int                    `json:"retained"`
		Total    int64                  `json:"total"`
		Jobs     []telemetry.JobSummary `json:"jobs"`
	}
	getJSON(t, ts, "/statusz", &statusz)
	if statusz.Total != 3 || statusz.Retained != 3 {
		t.Fatalf("statusz = retained %d total %d, want 3/3", statusz.Retained, statusz.Total)
	}
	byID := map[string]telemetry.JobSummary{}
	for _, j := range statusz.Jobs {
		byID[j.ID] = j
	}
	evicted, ok := byID[ids[0]]
	if !ok {
		t.Fatalf("statusz missing evicted job %s: %+v", ids[0], statusz.Jobs)
	}
	if evicted.Outcome != "done" || evicted.Cells != 2 {
		t.Errorf("evicted summary = %+v", evicted)
	}
	if evicted.TotalMS < evicted.QueueMS {
		t.Errorf("summary latency breakdown inconsistent: %+v", evicted)
	}
	// Most recent first.
	if statusz.Jobs[0].ID != ids[2] {
		t.Errorf("statusz order: first = %s, want %s", statusz.Jobs[0].ID, ids[2])
	}

	// The HTML rendering serves the same rows.
	req, _ := http.NewRequest("GET", ts.URL+"/statusz", nil)
	req.Header.Set("Accept", "text/html")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Errorf("HTML statusz Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(buf.String(), ids[0]) {
		t.Error("HTML statusz missing evicted job row")
	}

	// Eviction and the scrape-hook gauges are visible on /metrics.
	resp, body := getBody(t, ts, "/metrics?format=openmetrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	fams, err := telemetry.ParseOpenMetrics(body)
	if err != nil {
		t.Fatalf("/metrics?format=openmetrics invalid: %v", err)
	}
	vals := map[string]float64{}
	for _, f := range fams {
		if len(f.Samples) == 1 && len(f.Samples[0].Labels) == 0 {
			vals[f.Name] = f.Samples[0].Value
		}
	}
	if vals["server_jobs_evicted"] != 1 {
		t.Errorf("server_jobs_evicted = %v, want 1", vals["server_jobs_evicted"])
	}
	if vals["server_jobs_completed"] != 3 {
		t.Errorf("server_jobs_completed = %v, want 3", vals["server_jobs_completed"])
	}
	if vals["store_hit_rate"] <= 0 {
		t.Errorf("store_hit_rate = %v, want > 0 after repeated specs", vals["store_hit_rate"])
	}
	// Instrumented request telemetry collapses path parameters.
	foundRoute := false
	for _, f := range fams {
		if f.Name != "http_requests" {
			continue
		}
		for _, smp := range f.Samples {
			if smp.Labels["route"] == "GET /jobs/{id}" {
				foundRoute = true
			}
		}
	}
	if !foundRoute {
		t.Errorf("http_requests missing route=\"GET /jobs/{id}\": %s", body)
	}
}

// syncBuffer guards concurrent slog writes against the test's later read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestServerStructuredLogLifecycle(t *testing.T) {
	var buf syncBuffer
	logger := telemetry.NewLogger(&buf, slog.LevelDebug)
	_, ts := startServer(t, Config{Logger: logger})

	_, doc := submit(t, ts, testSpec(), "logged")
	id := doc["id"].(string)
	if final := waitDone(t, ts, id); final.State != "done" {
		t.Fatalf("state %q (error %q)", final.State, final.Error)
	}

	events := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q (%v)", line, err)
		}
		if msg, _ := rec["msg"].(string); msg != "" {
			events[msg] = rec
		}
	}
	for _, want := range []string{"job.accepted", "job.started", "cell.done", "job.done"} {
		rec, ok := events[want]
		if !ok {
			t.Errorf("lifecycle log missing %q", want)
			continue
		}
		if rec["job"] != id {
			t.Errorf("%s: job = %v, want %s", want, rec["job"], id)
		}
		if rec["client"] != "logged" {
			t.Errorf("%s: client = %v", want, rec["client"])
		}
	}
	if done := events["job.done"]; done != nil {
		if done["cells"] != float64(2) {
			t.Errorf("job.done cells = %v, want 2", done["cells"])
		}
		if _, ok := done["duration_ms"]; !ok {
			t.Error("job.done missing duration_ms")
		}
	}
}

// TestServerScrapeDuringJob hammers every observability endpoint while a
// job is executing — the race-mode regression test for concurrent scrapes
// against a live sweep.
func TestServerScrapeDuringJob(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := startServer(t, Config{Store: st, Burst: 16})

	_, doc := submit(t, ts, testSpec(), "hammer")
	id := doc["id"].(string)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{
		"/metrics", "/metrics?format=openmetrics", "/trace", "/statusz",
		"/jobs", "/jobs/" + id, "/store",
	}
	for _, p := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s during job: %v", path, err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s during job: status %d", path, resp.StatusCode)
					return
				}
				if path == "/metrics?format=openmetrics" {
					if _, err := telemetry.ParseOpenMetrics(buf.Bytes()); err != nil {
						t.Errorf("mid-job OpenMetrics scrape invalid: %v", err)
						return
					}
				}
			}
		}(p)
	}
	final := waitDone(t, ts, id)
	close(stop)
	wg.Wait()
	if final.State != "done" {
		t.Fatalf("hammered job state %q (error %q)", final.State, final.Error)
	}
}
