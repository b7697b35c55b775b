package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"scaledeep/internal/predict"
	"scaledeep/internal/server"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

const (
	pollInterval = time.Millisecond
	jobTimeout   = 60 * time.Second
)

// newHTTPClient is the generator's one HTTP client: every request of the
// run shares at most min(2, cores) connections.
func newHTTPClient() *http.Client {
	conns := min(2, runtime.NumCPU())
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: jobTimeout,
	}
}

// daemon is one in-process sdserve instance on a 127.0.0.1 listener, wired
// like cmd/sdserve with its default flags except the per-client rate limit,
// which is raised so the generator is never refused by design.
type daemon struct {
	dir  string
	st   *store.Store
	srv  *server.Server
	bs   *telemetry.BackgroundServer
	url  string
	poll *poller
	stop context.CancelFunc
}

func startDaemon(hc *http.Client, dir string, model *predict.Model) (*daemon, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	var p sweep.Predictor
	if model != nil {
		p = model
	}
	srv := server.New(server.Config{Store: st, Predictor: p, RatePerSec: 1e9, Burst: 1 << 30})
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	bs, err := telemetry.ServeBackground("127.0.0.1:0", srv.Mux())
	if err != nil {
		cancel()
		srv.Drain()
		st.Close()
		return nil, err
	}
	d := &daemon{dir: dir, st: st, srv: srv, bs: bs, url: "http://" + bs.Addr(), stop: cancel}
	d.poll = startPoller(hc, d.url)
	return d, nil
}

// close stops the poller, the listener and the scheduler, then flushes the
// store index.
func (d *daemon) close() error {
	d.poll.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.bs.Shutdown(ctx)
	d.stop()
	d.srv.Drain()
	return errors.Join(err, d.st.Close())
}

// storeStats is the subset of GET /store the benchmark reports.
type storeStats struct {
	MemHits   int64 `json:"mem_hits"`
	DiskHits  int64 `json:"disk_hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Coalesced int64 `json:"coalesced"`
}

func (s storeStats) sub(o storeStats) storeStats {
	return storeStats{s.MemHits - o.MemHits, s.DiskHits - o.DiskHits, s.Misses - o.Misses, s.Puts - o.Puts, s.Coalesced - o.Coalesced}
}

func (s storeStats) add(o storeStats) storeStats {
	return storeStats{s.MemHits + o.MemHits, s.DiskHits + o.DiskHits, s.Misses + o.Misses, s.Puts + o.Puts, s.Coalesced + o.Coalesced}
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) storeStats(ctx context.Context, hc *http.Client) (storeStats, error) {
	var s storeStats
	err := getJSON(ctx, hc, d.url+"/store", &s)
	return s, err
}

// poller detects job completion for every outstanding job with one
// GET /jobs?state=active per round, a round every pollInterval while any
// job is outstanding. A job is complete once a round that started after
// the job was registered no longer lists it as active.
type poller struct {
	hc  *http.Client
	url string

	mu      sync.Mutex
	wake    *sync.Cond
	waiting map[string]chan struct{}
	closed  bool
	done    chan struct{}
}

func startPoller(hc *http.Client, url string) *poller {
	p := &poller{hc: hc, url: url, waiting: map[string]chan struct{}{}, done: make(chan struct{})}
	p.wake = sync.NewCond(&p.mu)
	go p.loop()
	return p
}

// register returns a channel closed when job id is no longer active.
func (p *poller) register(id string) <-chan struct{} {
	ch := make(chan struct{})
	p.mu.Lock()
	p.waiting[id] = ch
	p.wake.Signal()
	p.mu.Unlock()
	return ch
}

func (p *poller) forget(id string) {
	p.mu.Lock()
	delete(p.waiting, id)
	p.mu.Unlock()
}

func (p *poller) close() {
	p.mu.Lock()
	p.closed = true
	p.wake.Signal()
	p.mu.Unlock()
	<-p.done
}

func (p *poller) loop() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.waiting) == 0 && !p.closed {
			p.wake.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		ids := make([]string, 0, len(p.waiting))
		for id := range p.waiting {
			ids = append(ids, id)
		}
		p.mu.Unlock()

		start := time.Now()
		var active []struct {
			ID string `json:"id"`
		}
		// A failed round completes nothing; a job that never completes
		// fails on its own timeout.
		if err := getJSON(context.Background(), p.hc, p.url+"/jobs?state=active", &active); err == nil {
			live := make(map[string]bool, len(active))
			for _, a := range active {
				live[a.ID] = true
			}
			p.mu.Lock()
			for _, id := range ids {
				if ch, ok := p.waiting[id]; ok && !live[id] {
					close(ch)
					delete(p.waiting, id)
				}
			}
			p.mu.Unlock()
		}
		time.Sleep(pollInterval - time.Since(start))
	}
}

// jobRec is one job as the generator saw it.
type jobRec struct {
	job *job
	// due is when the job was due: its schedule slot in the open loop, the
	// moment its client became free in a closed loop. Latency runs from due
	// in the open loop and from sent in a closed loop.
	due, sent, accepted, fetchSent, done time.Time
	open                                 bool
	id                                   string
	body                                 []byte
	refused                              bool
	err                                  error
	trace                                []byte // the job's Chrome trace (traced runs)
}

// from is when the job's latency starts: when it was due in the open loop,
// when it was sent in a closed loop.
func (r *jobRec) from() time.Time {
	if r.open {
		return r.due
	}
	return r.sent
}

func (r *jobRec) latency() time.Duration { return r.done.Sub(r.from()) }

// run submits one job, waits for the poller to see it finish and fetches
// its result body (and, when traced, its trace).
func run(ctx context.Context, hc *http.Client, d *daemon, j *job, due time.Time, open, traced bool) *jobRec {
	r := &jobRec{job: j, due: due, open: open}
	r.sent = time.Now()
	r.id, r.refused, r.err = submit(ctx, hc, d.url, j.body)
	r.accepted = time.Now()
	if r.err != nil {
		return r
	}
	wait := d.poll.register(r.id)
	timer := time.NewTimer(jobTimeout)
	defer timer.Stop()
	select {
	case <-wait:
	case <-timer.C:
		d.poll.forget(r.id)
		r.err = fmt.Errorf("job %s: not done after %v", r.id, jobTimeout)
		return r
	case <-ctx.Done():
		d.poll.forget(r.id)
		r.err = ctx.Err()
		return r
	}
	r.fetchSent = time.Now()
	r.body, r.err = fetch(ctx, hc, d.url+"/jobs/"+r.id+"/result")
	r.done = time.Now()
	if r.err != nil {
		var doc struct{ State, Error string }
		if getJSON(ctx, hc, d.url+"/jobs/"+r.id, &doc) == nil {
			r.err = fmt.Errorf("job %s ended %s: %s", r.id, doc.State, doc.Error)
		}
		return r
	}
	if traced {
		if r.trace, r.err = fetch(ctx, hc, d.url+"/jobs/"+r.id+"/trace"); r.err != nil {
			r.err = fmt.Errorf("job %s trace: %w", r.id, r.err)
		}
	}
	return r
}

// submit posts one spec and returns the job ID; refused reports a 429 or
// 503.
func submit(ctx context.Context, hc *http.Client, url string, body []byte) (id string, refused bool, err error) {
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		refused = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return "", refused, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", false, fmt.Errorf("submit: %w", err)
	}
	return doc.ID, false, nil
}

func fetch(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// closedLoop is one client that sends its next job only after the previous
// one completed, until next reports no more jobs. One client, not two: with
// two, each job's latency depended on which job the other client was running
// and on the race between them for a worker seat, and the job p50 of
// predict-sweep spread by 22-45% between runs of the same code.
func closedLoop(ctx context.Context, hc *http.Client, d *daemon, next func() (*job, bool), traced bool, record func(*jobRec)) {
	for {
		j, ok := next()
		if !ok {
			return
		}
		record(run(ctx, hc, d, j, time.Now(), false, traced))
	}
}

// openLoop sends every arrival at its due time (offsets from start)
// regardless of how earlier jobs are doing, and waits for all of them.
func openLoop(ctx context.Context, hc *http.Client, d *daemon, start time.Time, arr []arrival, traced bool, record func(*jobRec)) {
	var wg sync.WaitGroup
	for _, a := range arr {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(j *job, due time.Time) {
			defer wg.Done()
			record(run(ctx, hc, d, j, due, true, traced))
		}(a.job, due)
	}
	wg.Wait()
}
