package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"scaledeep/internal/store"
)

// distinctSpecs is a mixed-priority batch whose grid cells are mutually
// disjoint across jobs, so runs at different budget widths exercise
// genuine job overlap without any cross-job cell coalescing — the byte-
// identity comparison then covers tables, store keys, traces and merged
// metrics all at once.
func distinctSpecs() []Spec {
	return []Spec{
		{Workloads: []string{"simnet"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"eval"}, Format: "csv", Priority: 0},
		{Workloads: []string{"fcnet"}, Archs: []string{"baseline"}, Minibatches: []int{1, 2}, Modes: []string{"eval"}, Format: "csv", Priority: 5},
		{Workloads: []string{"trainnet"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"eval"}, Format: "json", Priority: 1},
		{Workloads: []string{"simnet"}, Archs: []string{"half"}, Minibatches: []int{1}, Modes: []string{"eval"}, Format: "csv", Priority: 3},
	}
}

// storeKeys lists the content-addressed blob names persisted under dir,
// sorted — blobs are stored one file per key.
func storeKeys(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(ents))
	for _, e := range ents {
		keys = append(keys, e.Name())
	}
	sort.Strings(keys)
	return keys
}

// deterministicCounters extracts the counter subset that the determinism
// contract covers — sweep and simulator activity plus job outcomes — as
// stable "name{labels}=value" lines. HTTP-layer series are excluded: status
// polling frequency is timing-dependent by nature.
func deterministicCounters(s *Server) []string {
	var out []string
	for _, c := range s.reg.Snapshot().Counters {
		if !strings.HasPrefix(c.Name, "sweep.") && !strings.HasPrefix(c.Name, "sim.") &&
			!strings.HasPrefix(c.Name, "server.jobs.") {
			continue
		}
		var lbl []string
		for k, v := range c.Labels {
			lbl = append(lbl, k+"="+v)
		}
		sort.Strings(lbl)
		out = append(out, fmt.Sprintf("%s{%s}=%d", c.Name, strings.Join(lbl, ","), c.Value))
	}
	sort.Strings(out)
	return out
}

// TestByteIdenticalAcrossBudgetWidths is the scheduler's correctness
// anchor: the same interleaved mixed-priority batch, run serial (a budget
// of one token) and four tokens wide against fresh stores under a fixed
// clock, must produce byte-identical rendered tables, store key sets, job
// traces and deterministic metric counters. Concurrency may only change
// wall-clock time.
func TestByteIdenticalAcrossBudgetWidths(t *testing.T) {
	type artifacts struct {
		results  [][]byte
		traces   [][]byte
		keys     []string
		counters []string
	}
	epoch := time.Unix(1700000000, 0)
	run := func(width int) artifacts {
		setBudget(t, width)
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, ts := startServer(t, Config{
			Store: st,
			Burst: 32,
			now:   func() time.Time { return epoch },
		})
		var ids []string
		for _, sp := range distinctSpecs() {
			resp, doc := submit(t, ts, sp, "alice")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("width=%d: submit: %d", width, resp.StatusCode)
			}
			ids = append(ids, doc["id"].(string))
		}
		var a artifacts
		for _, id := range ids {
			if doc := waitDone(t, ts, id); doc.State != "done" {
				t.Fatalf("width=%d: job %s ended %q (%s)", width, id, doc.State, doc.Error)
			}
		}
		for _, id := range ids {
			_, result := getBody(t, ts, "/jobs/"+id+"/result")
			a.results = append(a.results, result)
			_, trace := getBody(t, ts, "/jobs/"+id+"/trace")
			a.traces = append(a.traces, trace)
		}
		s.Drain()
		a.keys = storeKeys(t, dir)
		a.counters = deterministicCounters(s)
		return a
	}

	serial := run(1)
	wide := run(4)
	for i := range serial.results {
		if !bytes.Equal(serial.results[i], wide.results[i]) {
			t.Errorf("job %d: rendered table differs between budget widths 1 and 4", i)
		}
		if !bytes.Equal(serial.traces[i], wide.traces[i]) {
			t.Errorf("job %d: trace document differs between budget widths 1 and 4", i)
		}
	}
	if !equalStrings(serial.keys, wide.keys) {
		t.Errorf("store key sets differ:\n serial: %v\n wide:   %v", serial.keys, wide.keys)
	}
	if !equalStrings(serial.counters, wide.counters) {
		t.Errorf("deterministic counters differ:\n serial: %v\n wide:   %v", serial.counters, wide.counters)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentDuplicateJobsCoalesce submits identical single-cell jobs
// concurrently and pins the single-flight soundness properties that hold
// under EVERY interleaving: the cell simulates and persists at most once
// (puts == 1), every job gets byte-identical results, and each job that
// missed the store beyond the one leader was served by coalescing
// (coalesced == misses - 1) — never by a second simulation.
func TestConcurrentDuplicateJobsCoalesce(t *testing.T) {
	setBudget(t, 4)

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Store: st, Burst: 32})

	spec := Spec{
		Workloads: []string{"simnet"}, Archs: []string{"baseline"},
		Minibatches: []int{1}, Modes: []string{"eval"}, Format: "csv",
	}
	const dup = 4
	ids := make([]string, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, doc := submit(t, ts, spec, "storm")
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: %d", i, resp.StatusCode)
				return
			}
			ids[i] = doc["id"].(string)
		}(i)
	}
	wg.Wait()

	var results [][]byte
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		if doc := waitDone(t, ts, id); doc.State != "done" {
			t.Fatalf("job %s ended %q (%s)", id, doc.State, doc.Error)
		}
		_, body := getBody(t, ts, "/jobs/"+id+"/result")
		results = append(results, body)
	}
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Errorf("duplicate job %d returned different bytes than job 0", i)
		}
	}

	stats := st.Stats()
	if stats.Puts != 1 {
		t.Errorf("puts = %d, want exactly 1: duplicates must never re-simulate", stats.Puts)
	}
	if stats.Misses < 1 {
		t.Errorf("misses = %d, want >= 1 (the leader's)", stats.Misses)
	}
	if stats.Coalesced != stats.Misses-1 {
		t.Errorf("coalesced = %d with %d misses: every non-leader miss must coalesce",
			stats.Coalesced, stats.Misses)
	}

	// The store endpoint surfaces the new counter.
	var storeDoc map[string]any
	getJSON(t, ts, "/store", &storeDoc)
	if got, ok := storeDoc["coalesced"].(float64); !ok || int64(got) != stats.Coalesced {
		t.Errorf("/store coalesced = %v, want %d", storeDoc["coalesced"], stats.Coalesced)
	}
}

// TestRetryAfterHeaders pins the backoff hints on all three rejection
// paths: queue-full 503, draining 503, and the rate-limited 429 whose value
// is computed from the client's token deficit.
func TestRetryAfterHeaders(t *testing.T) {
	t.Run("queue full", func(t *testing.T) {
		_, ts := idleServer(t, Config{MaxQueue: 1})
		if resp, _ := submit(t, ts, testSpec(), "a"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit: %d", resp.StatusCode)
		}
		resp, _ := submit(t, ts, testSpec(), "a")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("second submit: %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "5" {
			t.Errorf("queue-full Retry-After = %q, want \"5\"", got)
		}
	})
	t.Run("draining", func(t *testing.T) {
		s, ts := idleServer(t, Config{})
		s.Drain()
		resp, _ := submit(t, ts, testSpec(), "a")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "30" {
			t.Errorf("draining Retry-After = %q, want \"30\"", got)
		}
	})
	t.Run("rate limited", func(t *testing.T) {
		epoch := time.Unix(1700000000, 0)
		_, ts := idleServer(t, Config{
			Burst: 1, RatePerSec: 0.25,
			now: func() time.Time { return epoch },
		})
		if resp, _ := submit(t, ts, testSpec(), "a"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit: %d", resp.StatusCode)
		}
		resp, _ := submit(t, ts, testSpec(), "a")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("second submit: %d, want 429", resp.StatusCode)
		}
		// Empty bucket at 0.25 tokens/s refills one token in 4s exactly.
		if got := resp.Header.Get("Retry-After"); got != "4" {
			t.Errorf("rate-limited Retry-After = %q, want \"4\"", got)
		}
	})
}

// TestJobsListing covers the queue-visibility endpoint: ages, the state
// filter including the "active" union, and rejection of unknown filters.
func TestJobsListing(t *testing.T) {
	// A strictly advancing fake clock gives every job a distinct, positive
	// age without real sleeping.
	var (
		mu  sync.Mutex
		cur = time.Unix(1700000000, 0)
	)
	_, ts := idleServer(t, Config{now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		cur = cur.Add(time.Second)
		return cur
	}})
	for i := 0; i < 3; i++ {
		sp := testSpec()
		sp.Priority = i
		if resp, _ := submit(t, ts, sp, "lister"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
	}

	var all []jobDoc
	getJSON(t, ts, "/jobs", &all)
	if len(all) != 3 {
		t.Fatalf("GET /jobs: %d docs, want 3", len(all))
	}
	for i, doc := range all {
		if doc.State != "queued" {
			t.Errorf("job %d state %q, want queued", i, doc.State)
		}
		if doc.Priority != i {
			t.Errorf("job %d priority %d, want %d (submission order)", i, doc.Priority, i)
		}
		if doc.AgeMS <= 0 {
			t.Errorf("job %d age_ms = %d, want > 0", i, doc.AgeMS)
		}
		if doc.Client != "lister" {
			t.Errorf("job %d client %q", i, doc.Client)
		}
	}
	// Older submissions have larger ages under the advancing clock.
	if !(all[0].AgeMS > all[1].AgeMS && all[1].AgeMS > all[2].AgeMS) {
		t.Errorf("ages not decreasing with submission order: %d, %d, %d",
			all[0].AgeMS, all[1].AgeMS, all[2].AgeMS)
	}

	for _, filter := range []string{"queued", "active"} {
		var docs []jobDoc
		getJSON(t, ts, "/jobs?state="+filter, &docs)
		if len(docs) != 3 {
			t.Errorf("?state=%s: %d docs, want 3", filter, len(docs))
		}
	}
	var done []jobDoc
	getJSON(t, ts, "/jobs?state=done", &done)
	if len(done) != 0 {
		t.Errorf("?state=done: %d docs, want 0", len(done))
	}
	resp, err := http.Get(ts.URL + "/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?state=bogus: %d, want 400", resp.StatusCode)
	}
}

// TestDrainWaitsForAllRunning: Drain must block until every concurrently
// running job reaches a terminal state — no job is left mid-flight.
func TestDrainWaitsForAllRunning(t *testing.T) {
	setBudget(t, 4)

	s, ts := startServer(t, Config{Burst: 32})
	var ids []string
	for i := 0; i < 3; i++ {
		resp, doc := submit(t, ts, testSpec(), "drainer")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, doc["id"].(string))
	}
	s.Drain()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running != 0 {
		t.Fatalf("running = %d after Drain, want 0", s.running)
	}
	for _, id := range ids {
		switch st := s.jobs[id].state; st {
		case "done", "failed", "cancelled":
		default:
			t.Errorf("job %s state %q after Drain, want terminal", id, st)
		}
	}
}

// TestOneTokenServesEveryQueuedJob pins the one-core path: with a single
// budget token, three multi-cell jobs queued before the dispatcher starts
// must each get the token in turn and reach done, and Drain must return
// instead of leaving a job waiting for a token that never comes back.
func TestOneTokenServesEveryQueuedJob(t *testing.T) {
	setBudget(t, 1)

	s := New(Config{Burst: 32})
	ts := httptest.NewServer(s.Mux())
	t.Cleanup(ts.Close)
	var ids []string
	for _, w := range []string{"simnet", "fcnet", "trainnet"} {
		sp := Spec{Workloads: []string{w}, Archs: []string{"baseline"},
			Minibatches: []int{1, 2}, Modes: []string{"eval"}, Format: "csv"}
		resp, doc := submit(t, ts, sp, "one-core")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d", w, resp.StatusCode)
		}
		ids = append(ids, doc["id"].(string))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	t.Cleanup(s.Drain) // a failed check below must not leave jobs holding the token
	for _, id := range ids {
		if doc := waitDone(t, ts, id); doc.State != "done" {
			t.Fatalf("job %s ended %q (%s)", id, doc.State, doc.Error)
		}
	}
	s.Drain()
}
