package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
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
	// byte-identity across budget widths checkable at all. Simulator spans
	// carry cycle timestamps and are deterministic regardless.
	trace := func(workers int) []byte {
		setBudget(t, workers)
		fixed := time.Unix(1_700_000_000, 0)
		s := New(Config{now: func() time.Time { return fixed }})
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
			t.Errorf("trace at a %d-token budget differs from 1 token (%d vs %d bytes)", workers, len(got), len(one))
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
	_, ts := startServer(t, Config{Store: st, traceSpans: 16})
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

// jobTraceSHA256 is the digest of the fixed-clock trace of testSpec() as
// job-000001 (88,778 bytes). The encoder, the assembly and the spans a job
// records all feed it; a deliberate change to any of them updates it.
const jobTraceSHA256 = "0e566ff8cafd1ff5a8deaa76729bc38c8c9238f1a1ffc2330f4551a7776eded9"

// TestServerJobTracePinned: the served trace of a fixed-clock job matches
// the pinned digest at budget widths 1 and 2. It is rendered on the first
// fetch, not at completion, and only once: 8 concurrent first fetches and a
// later one return the same bytes, and the render releases the span lanes.
func TestServerJobTracePinned(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			setBudget(t, workers)
			fixed := time.Unix(1_700_000_000, 0)
			s, ts := startServer(t, Config{now: func() time.Time { return fixed }})
			_, doc := submit(t, ts, testSpec(), "trace")
			id := doc["id"].(string)
			if final := waitDone(t, ts, id); final.State != "done" || final.TraceURL != "/jobs/"+id+"/trace" {
				t.Fatalf("job state %q (error %q), trace_url %q", final.State, final.Error, final.TraceURL)
			}
			s.mu.Lock()
			td := s.jobs[id].traceDoc
			s.mu.Unlock()
			if td == nil || td.data != nil || td.trace == nil {
				t.Fatalf("finished, unfetched job: trace doc %+v, want spans held and no rendered bytes", td)
			}

			const fetchers = 8
			bodies := make([][]byte, fetchers)
			var wg sync.WaitGroup
			for i := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					var buf bytes.Buffer
					if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("trace fetch: status %d, err %v", resp.StatusCode, err)
					}
					bodies[i] = buf.Bytes()
				}()
			}
			wg.Wait()
			_, again := getBody(t, ts, "/jobs/"+id+"/trace")
			for i, body := range append(bodies, again) {
				if !bytes.Equal(body, bodies[0]) {
					t.Errorf("fetch %d: %d bytes differ from the first fetch's %d", i, len(body), len(bodies[0]))
				}
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(again)); sum != jobTraceSHA256 {
				t.Errorf("trace sha256 = %s (%d bytes), want %s", sum, len(again), jobTraceSHA256)
			}
			if !bytes.Equal(td.bytes(), again) || td.trace != nil {
				t.Error("rendered trace doc does not hold the served bytes, or still holds the spans")
			}
		})
	}
}

// TestServerJobTraceByState: a queued job and a running one have no trace
// (404, "job is <state>, trace not available", no trace_url); a job cancelled
// while queued and a failed job carry trace_url and serve a trace that
// parses.
func TestServerJobTraceByState(t *testing.T) {
	wantNoTrace := func(t *testing.T, ts *httptest.Server, id, state string) {
		t.Helper()
		resp, body := getBody(t, ts, "/jobs/"+id+"/trace")
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusNotFound ||
			e["error"] != "job is "+state+", trace not available" {
			t.Errorf("%s job trace: status %d, body %s", state, resp.StatusCode, body)
		}
	}
	wantTrace := func(t *testing.T, ts *httptest.Server, id, state string) {
		t.Helper()
		var doc jobDoc
		getJSON(t, ts, "/jobs/"+id, &doc)
		if doc.State != state || doc.TraceURL != "/jobs/"+id+"/trace" {
			t.Fatalf("job %s: state %q, trace_url %q; want %s with a trace_url", id, doc.State, doc.TraceURL, state)
		}
		resp, body := getBody(t, ts, doc.TraceURL)
		var events []chromeEvent
		if err := json.Unmarshal(body, &events); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s job trace: status %d, parse error %v", state, resp.StatusCode, err)
		}
		if len(events) == 0 || events[0].Name != "process_name" || events[0].Args["name"] != id {
			t.Errorf("%s job trace does not open with its process_name event: %.200s", state, body)
		}
	}

	t.Run("cancelled", func(t *testing.T) {
		s, ts := idleServer(t, Config{})
		_, doc := submit(t, ts, testSpec(), "drained")
		id := doc["id"].(string)
		var queued jobDoc
		getJSON(t, ts, "/jobs/"+id, &queued)
		if queued.TraceURL != "" {
			t.Errorf("queued job carries trace_url %q", queued.TraceURL)
		}
		wantNoTrace(t, ts, id, "queued")
		s.Drain()
		wantTrace(t, ts, id, "cancelled")
	})

	t.Run("failed", func(t *testing.T) {
		_, ts := startServer(t, Config{})
		_, doc := submit(t, ts, Spec{
			Workloads: []string{"minivgg"}, Archs: []string{"half"},
			Minibatches: []int{64}, Modes: []string{"train"},
		}, "oversized")
		id := doc["id"].(string)
		waitDone(t, ts, id)
		wantTrace(t, ts, id, "failed")
	})

	t.Run("running", func(t *testing.T) {
		_, ts := startServer(t, Config{})
		// A job only moves forward, so a trace fetched between two status
		// reads that both say running was fetched while it ran. The cell is
		// slow enough that the first attempt almost always brackets one.
		for attempt := 0; attempt < 5; attempt++ {
			_, doc := submit(t, ts, Spec{
				Workloads: []string{"minivgg"}, Archs: []string{"baseline"},
				Minibatches: []int{4}, Modes: []string{"train"}, Iterations: 2,
			}, fmt.Sprintf("running-%d", attempt))
			id := doc["id"].(string)
			var before jobDoc
			for before.State == "" || before.State == "queued" {
				getJSON(t, ts, "/jobs/"+id, &before)
			}
			resp, body := getBody(t, ts, "/jobs/"+id+"/trace")
			var after jobDoc
			getJSON(t, ts, "/jobs/"+id, &after)
			if before.State == "running" && after.State == "running" {
				if before.TraceURL != "" || after.TraceURL != "" {
					t.Errorf("running job carries trace_url %q", after.TraceURL)
				}
				var e map[string]string
				if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusNotFound ||
					e["error"] != "job is running, trace not available" {
					t.Errorf("running job trace: status %d, body %s", resp.StatusCode, body)
				}
				waitDone(t, ts, id)
				return
			}
			waitDone(t, ts, id)
		}
		t.Fatal("no attempt saw a job running on both sides of its trace fetch")
	})
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
