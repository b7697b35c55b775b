package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"scaledeep/internal/par"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

// testSpec is a tiny two-cell sweep: fast enough for a unit test, two
// distinct cells so the store sees real traffic.
func testSpec() Spec {
	return Spec{
		Workloads:   []string{"simnet", "fcnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1},
		Modes:       []string{"eval"},
		Format:      "csv",
	}
}

// startServer builds a running daemon plus its HTTP front end; everything
// is torn down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Mux())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.Drain()
	})
	return s, ts
}

// setBudget sizes the internal/par budget, the daemon's only concurrency
// limit, to n tokens for the rest of the test.
func setBudget(t testing.TB, n int) {
	t.Helper()
	prev := par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(prev) })
}

// idleServer builds a daemon whose runner is never started, so submitted
// jobs stay queued — for queue/limit tests that need stable queue state.
func idleServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Mux())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec Spec, client string) (*http.Response, map[string]any) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("submit: decode response: %v", err)
	}
	return resp, doc
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp
}

func getBody(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// waitDone polls a job's status document until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var doc jobDoc
		getJSON(t, ts, "/jobs/"+id, &doc)
		switch doc.State {
		case "done", "failed", "cancelled":
			return doc
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobDoc{}
}

func TestServerJobRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := startServer(t, Config{Store: st, VerifyStore: true})

	spec := testSpec()
	resp, doc := submit(t, ts, spec, "round-trip")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202: %v", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit response has no id: %v", doc)
	}
	if jobs, _ := doc["jobs"].(float64); int(jobs) != 2 {
		t.Errorf("submit reported %v grid jobs, want 2", doc["jobs"])
	}

	final := waitDone(t, ts, id)
	if final.State != "done" {
		t.Fatalf("job state %q (error %q), want done", final.State, final.Error)
	}
	var prog struct {
		State string `json:"state"`
		Done  int    `json:"done"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(final.Progress, &prog); err != nil {
		t.Fatalf("progress doc: %v (%s)", err, final.Progress)
	}
	if prog.State != "done" || prog.Done != 2 || prog.Total != 2 {
		t.Errorf("progress = %+v, want done 2/2", prog)
	}

	// The served result must equal a direct in-process sweep render.
	resp, got := getBody(t, ts, "/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("result Content-Type %q, want text/csv", ct)
	}
	results, err := sweep.RunGrid(context.Background(), spec.grid(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := sweep.WriteCSV(&want, results); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("served result differs from direct render:\n got %q\nwant %q", got, want.String())
	}

	var list []jobDoc
	getJSON(t, ts, "/jobs", &list)
	if len(list) != 1 || list[0].ID != id {
		t.Errorf("job list = %+v, want the one submitted job", list)
	}
}

// TestServerSecondPassHitsStore is the service-level acceptance check: the
// same spec submitted twice returns byte-identical results, with the second
// pass served from the persistent store.
func TestServerSecondPassHitsStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := startServer(t, Config{Store: st, VerifyStore: true, Burst: 16})

	spec := testSpec()
	_, doc1 := submit(t, ts, spec, "store-pass")
	first := waitDone(t, ts, doc1["id"].(string))
	_, doc2 := submit(t, ts, spec, "store-pass")
	second := waitDone(t, ts, doc2["id"].(string))
	if first.State != "done" || second.State != "done" {
		t.Fatalf("states %q/%q, want done/done", first.State, second.State)
	}

	_, b1 := getBody(t, ts, "/jobs/"+doc1["id"].(string)+"/result")
	_, b2 := getBody(t, ts, "/jobs/"+doc2["id"].(string)+"/result")
	if !bytes.Equal(b1, b2) {
		t.Errorf("second pass not byte-identical:\n first %q\nsecond %q", b1, b2)
	}

	var stats map[string]any
	getJSON(t, ts, "/store", &stats)
	if hits, _ := stats["mem_hits"].(float64); hits < 2 {
		t.Errorf("store stats after second pass: mem_hits=%v, want >= 2 (%v)", hits, stats)
	}
	if puts, _ := stats["puts"].(float64); puts != 2 {
		t.Errorf("store stats: puts=%v, want 2 (one per distinct cell)", puts)
	}

	// Raw blobs are addressable over HTTP by their store key.
	keys := st.Keys()
	if len(keys) != 2 {
		t.Fatalf("store holds %d blobs, want 2", len(keys))
	}
	resp, blob := getBody(t, ts, "/results/"+keys[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/results/%s: status %d", keys[0], resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("/results/%s: Content-Type %q, want application/octet-stream", keys[0], ct)
	}
	payload, ok, err := st.Get(keys[0])
	if err != nil || !ok {
		t.Fatalf("store.Get(%s): ok=%v err=%v", keys[0], ok, err)
	}
	if !bytes.Equal(blob, payload) {
		t.Error("/results blob differs from store payload")
	}
	if resp, _ := getBody(t, ts, "/results/not-a-key"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/results with invalid key: status %d, want 404", resp.StatusCode)
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	_, ts := idleServer(t, Config{})

	bad := testSpec()
	bad.Workloads = []string{"no-such-net"}
	if resp, _ := submit(t, ts, bad, "bad"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d, want 400", resp.StatusCode)
	}
	bad = testSpec()
	bad.Format = "xml"
	if resp, _ := submit(t, ts, bad, "bad"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
	for name, body := range map[string]string{
		"malformed JSON": "{not json",
		"trailing bytes": trailingBytesSpec,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	var e map[string]string
	if resp := getJSON(t, ts, "/jobs/job-999999", &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts, "/jobs/job-999999/result"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: status %d, want 404", resp.StatusCode)
	}
}

// trailingBytesSpec is a valid one-cell spec followed by bytes that are not
// JSON; the body as a whole is not a spec.
const trailingBytesSpec = `{"workloads":["simnet"],"archs":["baseline"],"minibatches":[1],"modes":["eval"]} this is not json`

// oversizedSpec lists 20 workloads × 20 archs × 200 minibatches × 20
// modes, all repeats: an 891-byte body asking for 1,600,000 grid cells.
func oversizedSpec() Spec {
	repeat := func(v string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	mbs := make([]int, 200)
	for i := range mbs {
		mbs[i] = 1
	}
	return Spec{Workloads: repeat("fcnet", 20), Archs: repeat("half", 20), Minibatches: mbs, Modes: repeat("eval", 20)}
}

// postSpec hands body straight to the submit handler.
func postSpec(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.handleSubmit(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
	return rec
}

// TestServerRejectsOversizedSpec: a spec whose axes multiply past
// maxJobCells is refused before its grid is expanded, and a spec of exactly
// maxJobCells cells is accepted.
func TestServerRejectsOversizedSpec(t *testing.T) {
	s := New(Config{Burst: 16})
	body, err := json.Marshal(oversizedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 891 {
		t.Fatalf("oversized spec is %d bytes, want 891", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := postSpec(s, body)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("1,600,000-cell spec: status %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting the oversized spec allocated %d bytes, want under 1 MB", alloc)
	}

	atBound := Spec{
		Workloads: []string{"simnet", "fcnet"}, Archs: []string{"baseline", "half"},
		Modes: []string{"eval", "train"},
	}
	for mb := 1; mb <= maxJobCells/8; mb++ {
		atBound.Minibatches = append(atBound.Minibatches, mb)
	}
	body, _ = json.Marshal(atBound)
	if rec := postSpec(s, body); rec.Code != http.StatusAccepted || !strings.Contains(rec.Body.String(), fmt.Sprintf(`"jobs":%d`, maxJobCells)) {
		t.Errorf("%d-cell spec: status %d, want 202 with %d jobs (%s)", maxJobCells, rec.Code, maxJobCells, rec.Body)
	}
	atBound.Minibatches = append(atBound.Minibatches, 1)
	body, _ = json.Marshal(atBound)
	if rec := postSpec(s, body); rec.Code != http.StatusBadRequest {
		t.Errorf("%d-cell spec: status %d, want 400", maxJobCells+8, rec.Code)
	}
}

func TestServerQueueBoundAndPendingResult(t *testing.T) {
	s, ts := idleServer(t, Config{MaxQueue: 2, Burst: 16})

	var ids []string
	for i := 0; i < 2; i++ {
		resp, doc := submit(t, ts, testSpec(), "bound")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, doc["id"].(string))
	}
	resp, doc := submit(t, ts, testSpec(), "bound")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit past MaxQueue: status %d, want 503 (%v)", resp.StatusCode, doc)
	}
	if s.queueDepth() != 2 {
		t.Errorf("queue depth %d, want 2", s.queueDepth())
	}

	// A queued job has no result yet.
	if resp, _ := getBody(t, ts, "/jobs/"+ids[0]+"/result"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("queued job result: status %d, want 404", resp.StatusCode)
	}

	// Drain cancels everything still queued and refuses new work.
	s.Drain()
	for _, id := range ids {
		var doc jobDoc
		getJSON(t, ts, "/jobs/"+id, &doc)
		if doc.State != "cancelled" {
			t.Errorf("job %s after drain: state %q, want cancelled", id, doc.State)
		}
	}
	if resp, _ := submit(t, ts, testSpec(), "bound"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

func TestServerRateLimit(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	s := New(Config{MaxQueue: 64, RatePerSec: 1, Burst: 2, now: func() time.Time { return clock }})
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if resp, doc := submit(t, ts, testSpec(), "limited"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d within burst: status %d (%v)", i, resp.StatusCode, doc)
		}
	}
	resp, _ := submit(t, ts, testSpec(), "limited")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past burst: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	// Another client has its own bucket.
	if resp, _ := submit(t, ts, testSpec(), "other"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("second client: status %d, want 202", resp.StatusCode)
	}
	// A second of refill buys exactly one more submission.
	clock = clock.Add(time.Second)
	if resp, _ := submit(t, ts, testSpec(), "limited"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit after refill: status %d, want 202", resp.StatusCode)
	}
	if resp, _ := submit(t, ts, testSpec(), "limited"); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second submit after refill: status %d, want 429", resp.StatusCode)
	}
}

// TestServerClientTableBounded is the regression test for the unbounded
// rate-limit map: an open population of clients must never grow s.clients
// past Config.MaxClients, and eviction must drop the least-recently-seen
// client — not a random or recently-active one.
func TestServerClientTableBounded(t *testing.T) {
	s, ts := idleServer(t, Config{MaxQueue: 64, Burst: 16, MaxClients: 3})

	for _, c := range []string{"a", "b", "c"} {
		if resp, _ := submit(t, ts, testSpec(), c); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("client %s: status %d, want 202", c, resp.StatusCode)
		}
	}
	// Touch a again so b becomes the least-recently-seen client, then let a
	// fourth client force an eviction.
	submit(t, ts, testSpec(), "a")
	submit(t, ts, testSpec(), "d")

	clients := func() []string {
		s.mu.Lock()
		defer s.mu.Unlock()
		got := make([]string, 0, len(s.clients))
		for id := range s.clients {
			got = append(got, id)
		}
		sort.Strings(got)
		return got
	}
	if got, want := clients(), []string{"a", "c", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("client table after eviction = %v, want %v (LRU client b evicted)", got, want)
	}

	// Sustained churn from fresh clients holds the table at the cap.
	for i := 0; i < 20; i++ {
		submit(t, ts, testSpec(), fmt.Sprintf("churn-%d", i))
	}
	if got := clients(); len(got) != 3 {
		t.Fatalf("client table holds %d entries after churn, cap is 3 (%v)", len(got), got)
	}
}

// TestServerPriorityOrder submits jobs at mixed priorities while the
// runner is stopped, then checks the dequeue order: priority descending,
// submission order within a priority.
func TestServerPriorityOrder(t *testing.T) {
	s, ts := idleServer(t, Config{Burst: 16})

	prios := []int{0, 5, 1, 5}
	ids := make([]string, len(prios))
	for i, p := range prios {
		spec := testSpec()
		spec.Priority = p
		_, doc := submit(t, ts, spec, "prio")
		ids[i] = doc["id"].(string)
	}
	want := []string{ids[1], ids[3], ids[2], ids[0]}
	s.mu.Lock()
	var got []string
	for {
		job := s.queue.dequeue()
		if job == nil {
			break
		}
		got = append(got, job.ID)
	}
	s.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("dequeued %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
}

func TestServerHealthyJobCarriesNoError(t *testing.T) {
	_, ts := startServer(t, Config{})
	_, doc := submit(t, ts, testSpec(), "ok")
	final := waitDone(t, ts, doc["id"].(string))
	if final.State != "done" {
		t.Fatalf("state %q (error %q), want done", final.State, final.Error)
	}
	if final.Error != "" {
		t.Errorf("done job carries error %q", final.Error)
	}
}

func TestBucketRefill(t *testing.T) {
	var b bucket
	now := time.Unix(1700000000, 0)
	for i := 0; i < 3; i++ {
		if !b.take(now, 2, 3) {
			t.Fatalf("take %d within burst failed", i)
		}
	}
	if b.take(now, 2, 3) {
		t.Fatal("take past burst succeeded")
	}
	// 500ms at 2/s refills one token.
	now = now.Add(500 * time.Millisecond)
	if !b.take(now, 2, 3) {
		t.Fatal("take after refill failed")
	}
	if b.take(now, 2, 3) {
		t.Fatal("double take after single refill succeeded")
	}
	// Refill caps at burst.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !b.take(now, 2, 3) {
			t.Fatalf("take %d after long idle failed", i)
		}
	}
	if b.take(now, 2, 3) {
		t.Fatal("burst cap not enforced after long idle")
	}
}

// TestServerOversizedJobFails: a cell whose state overflows the chip's
// scratchpads fails its own job with the compiler's error, and the daemon
// keeps serving — the next job completes.
func TestServerOversizedJobFails(t *testing.T) {
	_, ts := startServer(t, Config{})
	_, doc := submit(t, ts, Spec{
		Workloads: []string{"minivgg"}, Archs: []string{"half"},
		Minibatches: []int{64}, Modes: []string{"train"},
	}, "oversized")
	final := waitDone(t, ts, doc["id"].(string))
	if final.State != "failed" || !strings.Contains(final.Error, "over capacity") {
		t.Fatalf("oversized job: state %q error %q, want failed with an over-capacity error", final.State, final.Error)
	}
	_, doc = submit(t, ts, testSpec(), "after-oversized")
	if final := waitDone(t, ts, doc["id"].(string)); final.State != "done" {
		t.Fatalf("job after the oversized one: state %q (error %q)", final.State, final.Error)
	}
}

// TestServerReusesPooledMachines checks that jobs share the sweep engine's
// process-wide machine pool: a job on an arch an earlier job simulated runs
// on a reused machine, and /metrics reports it.
func TestServerReusesPooledMachines(t *testing.T) {
	_, ts := startServer(t, Config{})
	reused := func() float64 {
		t.Helper()
		var snap telemetry.Snapshot
		getJSON(t, ts, "/metrics", &snap)
		for _, g := range snap.Gauges {
			if g.Name == "sweep.machines.reused" {
				return g.Value
			}
		}
		t.Fatal("/metrics has no sweep.machines.reused gauge")
		return 0
	}
	before := reused()
	for _, wl := range []string{"simnet", "fcnet"} {
		spec := testSpec()
		spec.Workloads = []string{wl}
		_, doc := submit(t, ts, spec, "pool")
		if final := waitDone(t, ts, doc["id"].(string)); final.State != "done" {
			t.Fatalf("%s job state %q (error %q), want done", wl, final.State, final.Error)
		}
	}
	if after := reused(); after < before+1 {
		t.Fatalf("sweep.machines.reused went %v -> %v over two sequential baseline jobs, want it to advance", before, after)
	}
}
