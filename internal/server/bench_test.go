package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"
	"time"

	"scaledeep/internal/par"
	"scaledeep/internal/store"
)

// stormSpecs is the duplicate-heavy job storm behind BENCH_serve.json:
// four distinct single-cell sweeps, each submitted twice — the production
// shape where many clients ask overlapping questions at once. A serial
// budget of one token simulates the four novel cells back to back; a wider
// budget runs them in parallel while the four duplicates coalesce through
// the store's single-flight layer instead of re-simulating.
func stormSpecs() []Spec {
	distinct := []Spec{
		{Workloads: []string{"simnet"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"eval"}, Format: "csv"},
		{Workloads: []string{"fcnet"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"eval"}, Format: "csv"},
		{Workloads: []string{"trainnet"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"eval"}, Format: "csv"},
		{Workloads: []string{"simnet"}, Archs: []string{"half"}, Minibatches: []int{1}, Modes: []string{"eval"}, Format: "csv"},
	}
	return append(distinct, distinct...)
}

// benchSubmit posts one spec and returns the job ID.
func benchSubmit(b *testing.B, url string, sp Spec) string {
	b.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		b.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/jobs", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("X-Client", "storm")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		b.Fatal(err)
	}
	return doc["id"].(string)
}

// runStorm fires every storm job at a fresh daemon on a budget of width
// tokens (0 = the default, GOMAXPROCS) and waits for all of them,
// returning each job's submit-to-done latency and the storm's store stats.
// The store starts empty every time, so the four novel cells always
// simulate.
func runStorm(b *testing.B, width int) ([]time.Duration, store.Stats) {
	b.Helper()
	prev := par.SetWorkers(width)
	defer par.SetWorkers(prev)
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Store: st, Burst: 64})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Mux())

	specs := stormSpecs()
	ids := make([]string, len(specs))
	starts := make([]time.Time, len(specs))
	for i, sp := range specs {
		starts[i] = time.Now()
		ids[i] = benchSubmit(b, ts.URL, sp)
	}
	lats := make([]time.Duration, len(ids))
	for i, id := range ids {
		deadline := time.Now().Add(60 * time.Second)
		for {
			var doc jobDoc
			resp, err := http.Get(ts.URL + "/jobs/" + id)
			if err != nil {
				b.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if doc.State == "done" {
				lats[i] = time.Since(starts[i])
				break
			}
			if doc.State == "failed" || doc.State == "cancelled" {
				b.Fatalf("job %s ended %s: %s", id, doc.State, doc.Error)
			}
			if time.Now().After(deadline) {
				b.Fatalf("job %s stuck in %s", id, doc.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
	stats := st.Stats()
	ts.Close()
	s.Drain()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return lats, stats
}

// p95 returns the 95th-percentile latency of one storm.
func p95(lats []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

func benchServeStorm(b *testing.B, width int) {
	b.Helper()
	var (
		total   time.Duration
		worst95 time.Duration
		jobs    int
	)
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		lats, _ := runStorm(b, width)
		total += time.Since(t0)
		jobs += len(lats)
		if p := p95(lats); p > worst95 {
			worst95 = p
		}
	}
	b.ReportMetric(float64(jobs)/total.Seconds(), "jobs-per-sec")
	b.ReportMetric(float64(worst95.Milliseconds()), "p95-ms")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkServeStormSerial is the one-job-at-a-time baseline: a budget of
// one token.
func BenchmarkServeStormSerial(b *testing.B) { benchServeStorm(b, 1) }

// BenchmarkServeStormConcurrent runs the same storm on the default budget,
// GOMAXPROCS tokens wide. The CI gate (SERVE_MAX_RATIO) requires its ns/op
// at most half of Serial's — at least 2× the job throughput — on a
// multi-core runner; on one core the workers metric tells sdbenchdiff to
// skip the comparison.
func BenchmarkServeStormConcurrent(b *testing.B) { benchServeStorm(b, 0) }

// BenchmarkServeStormSpeedup runs both schedules per iteration and reports
// the headline numbers of BENCH_serve.json: the throughput ratio and how
// much of the concurrent storm was answered by single-flight coalescing
// instead of duplicate simulation.
func BenchmarkServeStormSpeedup(b *testing.B) {
	var serial, concurrent time.Duration
	var coalesced, puts int64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		runStorm(b, 1)
		serial += time.Since(t0)
		t0 = time.Now()
		_, stats := runStorm(b, 0)
		concurrent += time.Since(t0)
		coalesced += stats.Coalesced
		puts += stats.Puts
	}
	b.ReportMetric(serial.Seconds()/concurrent.Seconds(), "storm-speedup-x")
	b.ReportMetric(float64(coalesced)/float64(b.N), "coalesced-per-storm")
	b.ReportMetric(float64(puts)/float64(b.N), "puts-per-storm")
	b.ReportMetric(serial.Seconds()*1e3/float64(b.N), "serial-ms")
	b.ReportMetric(concurrent.Seconds()*1e3/float64(b.N), "concurrent-ms")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}
