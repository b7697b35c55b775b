// Command sdbench is the end-to-end benchmark of the sdserve sweep service.
// Each invocation runs one workload in a fresh process: it starts the
// service in process on a 127.0.0.1 listener, drives it only through its
// HTTP API for a measured window, checks every result, and prints each
// metric as "name value unit" followed by one JSON line.
//
// Usage:
//
//	sdbench -workload cold-sweep|warm-zoo|dup-storm|predict-sweep \
//	        -seed N -seconds S [-trace 0|1] [-trace-out FILE]
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) reports the per-layer metrics instead: it fetches every job's
// trace as the job completes, probes each layer's public functions after
// the window, and writes the harness's own spans, one track per layer, as
// a Chrome trace (default .bench_build/sdbench-<workload>-seed<N>.trace.json).
//
// The exit status is 1 when a job failed or an output check failed (the
// JSON line is still printed, with "correct" false) and 2 when the run
// could not finish.
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"scaledeep/internal/predict"
	"scaledeep/internal/server"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

// config is one run's settings. The defaults are the benchmark's; tests
// shrink the repetition and sample counts.
type config struct {
	seed     int64
	window   time.Duration
	traced   bool
	traceOut string
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// warmups is the number of warm-up jobs warm-zoo's set-up sends.
	warmups int
	// checkCells is the number of reference cells set-up simulates in
	// process for the output check.
	checkCells int
	// probeCells is the size of the compiler and simulator probe sample.
	probeCells int
	// maxJobs, when positive, cuts the job list to its first maxJobs jobs,
	// so that tests can run whole passes quickly.
	maxJobs int
	// full marks a run with at least the default window and the default
	// samples, whose exact per-layer counts must equal exactCounts.
	full bool
}

func defaultConfig() config {
	return config{seed: 1, window: 25 * time.Second, setupReps: 5, warmups: 20, checkCells: 16, probeCells: 32, full: true}
}

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "", "workload to run: cold-sweep, warm-zoo, dup-storm or predict-sweep")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for job order and arrival times")
	seconds := flag.Float64("seconds", cfg.window.Seconds(), "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/sdbench-<workload>-seed<N>.trace.json)")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil {
		fatal(2, err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds <= 0 {
		fatal(2, fmt.Errorf("-seconds %v: want > 0", *seconds))
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.full = cfg.window >= defaultConfig().window
	cfg.traced = *trace == 1
	if cfg.traced && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("sdbench-%s-seed%d.trace.json", w.name, cfg.seed))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, err := runWorkload(ctx, w, cfg)
	if err != nil {
		fatal(2, err)
	}
	if err := rep.print(os.Stdout); err != nil {
		fatal(2, err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "sdbench:", err)
	os.Exit(code)
}

// spanLog keeps the harness's own spans for the traced run's Chrome trace,
// one track per layer. A nil log records nothing.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []telemetry.Span
}

func (l *spanLog) add(track, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, telemetry.Span{
		Track: track, Name: name,
		Start: start.Sub(l.t0).Microseconds(), Dur: end.Sub(start).Microseconds(),
	})
	l.mu.Unlock()
}

// since records a span from start to now and returns its length.
func (l *spanLog) since(track, name string, start time.Time) time.Duration {
	end := time.Now()
	l.add(track, name, start, end)
	return end.Sub(start)
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = telemetry.WriteChromeTraceMeta(f, l.spans, telemetry.TraceMeta{Process: "sdbench"})
	return errors.Join(err, f.Close())
}

// harness is one run's state.
type harness struct {
	w     *workload
	cfg   config
	hc    *http.Client
	tmp   string
	dirs  int
	spans *spanLog
	out   *outputs
	jobs  []*job

	model    *predict.Model // predict-sweep's fitted predictor
	fit      time.Duration  // median time of its predict.Fit
	refs     []reference    // cells simulated in set-up for the output check
	firstDir string         // the set-up daemon's store, which the store probe reads
	starts   []float64      // daemon bring-up times in set-up (ms)

	// setupSpeed and speed are the machine's speed relative to the
	// reference machine in set-up and in the window (see speed.go); probeUS
	// is the probe's median sample in the window.
	setupSpeed, speed, probeUS float64

	mu    sync.Mutex
	recs  []*jobRec // jobs sent in the window
	bd    breakdown
	stats storeStats // GET /store deltas over the window
	start time.Time  // window start
}

func (h *harness) newDirName() string {
	h.dirs++
	return filepath.Join(h.tmp, fmt.Sprintf("store-%d", h.dirs))
}

func runWorkload(ctx context.Context, w *workload, cfg config) (*report, error) {
	tmp, err := os.MkdirTemp("", "sdbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	jobs := encodeJobs(w.jobs)
	if cfg.maxJobs > 0 && cfg.maxJobs < len(jobs) {
		jobs = jobs[:cfg.maxJobs]
	}
	h := &harness{w: w, cfg: cfg, hc: newHTTPClient(), tmp: tmp, out: newOutputs(), jobs: jobs}
	if cfg.traced {
		h.spans = &spanLog{t0: time.Now()}
	}

	d, setups, err := h.measure(ctx)
	if err != nil {
		return nil, err
	}

	t := time.Now()
	err = h.answerReferences(ctx, d)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cells := w.cells()
	hitShare, err := h.out.checkSources(cells, h.model)
	if err != nil {
		return nil, err
	}
	h.out.compare(h.refs)
	h.spans.since("bench", "output checks", t)

	values := map[string]float64{}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		values["predict.hit_share"] = hitShare
		if err := h.perLayer(values); err != nil {
			return nil, err
		}
		if cfg.full {
			for name, want := range exactCounts[w.name] {
				if got := values[name]; got != want {
					h.out.failf("%s = %v, want %v", name, got, want)
				}
			}
		}
		if err := h.spans.write(cfg.traceOut); err != nil {
			return nil, err
		}
	} else {
		values["setup_s"] = quantile(setups, 0.5)
		h.endToEnd(values)
	}
	return h.report(defs, values)
}

// measure runs the set-up cfg.setupReps times and then the window, with
// the speed probe running throughout, and returns the window's daemon, still
// running, and each set-up's length (s).
func (h *harness) measure(ctx context.Context) (*daemon, []float64, error) {
	probe := startSpeedProbe()
	defer probe.close()
	start := time.Now()
	var setups, fits []float64
	var d *daemon
	for i := 0; i < h.cfg.setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, err
			}
		}
		t := time.Now()
		var err error
		if d, err = h.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, h.spans.since("bench", "setup", t).Seconds())
		fits = append(fits, h.fit.Seconds())
	}
	h.fit = time.Duration(quantile(fits, 0.5) * float64(time.Second))
	h.firstDir = d.dir

	t := time.Now()
	d, err := h.drive(ctx, d)
	if err != nil {
		return nil, nil, err
	}
	end := h.spans.since("bench", "window", t)
	h.setupSpeed = probe.speed(start, t)
	h.speed = probe.speed(t, t.Add(end))
	h.probeUS = probe.median(t, t.Add(end))
	fmt.Fprintf(os.Stderr, "sdbench: machine speed %.4f in set-up, %.4f in the window (probe median %.1f µs, reference %.0f µs; host stole %.4f of busy CPU time in set-up, %.4f in the window)\n",
		h.setupSpeed, h.speed, h.probeUS, probeRefUS, probe.stolen(start, t), probe.stolen(t, t.Add(end)))
	return d, setups, nil
}

// report builds the run's result. A refused, failed or timed-out job fails
// the run as a wrong output does: a change that turns slow jobs into
// failures must not read as a latency gain.
func (h *harness) report(defs []metricDef, values map[string]float64) (*report, error) {
	rep, err := newReport(defs, values)
	if err != nil {
		return nil, err
	}
	rep.Attempted = len(h.recs)
	for _, r := range h.recs {
		if r.err != nil {
			rep.Failed++
			fmt.Fprintln(os.Stderr, "sdbench: failed job:", r.err)
		}
	}
	for _, msg := range h.out.wrong {
		fmt.Fprintln(os.Stderr, "sdbench: wrong output:", msg)
	}
	rep.Correct = len(h.out.wrong) == 0 && rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

func specGrid(sp server.Spec) sweep.Grid {
	return sweep.Grid{Workloads: sp.Workloads, Archs: sp.Archs, Minibatches: sp.Minibatches, Modes: sp.Modes, Iterations: sp.Iterations}
}

// setup readies everything the window needs: a store filled and reopened
// plus warm-up jobs for warm-zoo, a fitted predictor for predict-sweep, an
// empty store otherwise; and the rows of the reference cells, simulated in
// process, that the output check compares the server's rows with.
func (h *harness) setup(ctx context.Context) (*daemon, error) {
	dir := h.newDirName()
	h.model, h.fit = nil, 0
	switch {
	case h.w.warm:
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, err
		}
		if _, err := sweep.RunGrid(ctx, specGrid(h.w.jobs[0]), sweep.Options{Store: st}); err != nil {
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	case h.w.predict:
		samples, err := predict.Harvest(ctx, harvestGrid, sweep.Options{})
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if h.model, err = predict.Fit(samples, predict.FitOptions{}); err != nil {
			return nil, err
		}
		h.fit = time.Since(t)
	}
	var err error
	if h.refs, err = references(ctx, h.w, h.model, h.cfg.checkCells); err != nil {
		return nil, err
	}
	t := time.Now()
	d, err := startDaemon(h.hc, dir, h.model)
	if err != nil {
		return nil, err
	}
	h.starts = append(h.starts, ms(h.spans.since("server", "daemon start", t)))
	if !h.w.warm {
		return d, nil
	}
	var (
		sent int
		fail error
	)
	next := func() (*job, bool) {
		if sent == h.cfg.warmups || fail != nil {
			return nil, false
		}
		sent++
		return h.jobs[0], true
	}
	closedLoop(ctx, h.hc, d, next, false, func(r *jobRec) {
		if r.err == nil && !h.out.add(r.job, r.body) {
			r.err = errors.New("wrong output")
		}
		if r.err != nil && fail == nil {
			fail = fmt.Errorf("warm-up job: %w", r.err)
		}
	})
	if fail != nil {
		d.close()
		return nil, fail
	}
	return d, nil
}

// drive runs the measured window against d: the storm schedule for the
// open loop, otherwise one client. A warm workload sends passes over the
// job list back to back until the window ends. A fresh workload runs whole
// passes, each against a new daemon with an empty store: as many as fit in
// the window, at least one, so that every seed sends every job the same
// number of times. It returns the daemon still running, its store traffic
// already counted.
func (h *harness) drive(ctx context.Context, d *daemon) (*daemon, error) {
	before, err := d.storeStats(ctx, h.hc)
	if err != nil {
		return d, err
	}
	h.start = time.Now()
	if h.w.open {
		openLoop(ctx, h.hc, d, h.start, stormSchedule(h.cfg.seed, h.cfg.window, h.jobs), h.cfg.traced, h.record)
		return d, h.count(ctx, d, before)
	}
	ps := newPasses(h.cfg.seed, h.jobs)
	if !h.w.fresh {
		deadline := h.start.Add(h.cfg.window)
		order, i := ps.next(), 0
		next := func() (*job, bool) {
			if !time.Now().Before(deadline) {
				return nil, false
			}
			if i == len(order) {
				order, i = ps.next(), 0
			}
			i++
			return order[i-1], true
		}
		closedLoop(ctx, h.hc, d, next, h.cfg.traced, h.record)
		return d, h.count(ctx, d, before)
	}
	for {
		passStart := time.Now()
		order := ps.next()
		next := func() (*job, bool) {
			if len(order) == 0 {
				return nil, false
			}
			j := order[0]
			order = order[1:]
			return j, true
		}
		closedLoop(ctx, h.hc, d, next, h.cfg.traced, h.record)
		if err := h.count(ctx, d, before); err != nil {
			return d, err
		}
		// Stop unless another pass as long as this one fits in the window.
		if time.Since(h.start)+time.Since(passStart) > h.cfg.window || ctx.Err() != nil {
			return d, nil
		}
		if err := d.close(); err != nil {
			return d, err
		}
		if d, err = startDaemon(h.hc, h.newDirName(), h.model); err != nil {
			return nil, err
		}
		before = storeStats{}
	}
}

// count adds the daemon's store traffic since before to the window's.
func (h *harness) count(ctx context.Context, d *daemon, before storeStats) error {
	after, err := d.storeStats(ctx, h.hc)
	if err != nil {
		return err
	}
	h.stats = h.stats.add(after.sub(before))
	return nil
}

// answerReferences sends each reference cell the window did not answer to
// d as a single-cell job, after the window, so that every reference row
// has a server row to be compared with.
func (h *harness) answerReferences(ctx context.Context, d *daemon) error {
	for _, ref := range h.refs {
		c := ref.cell
		if _, ok := h.out.row(c); ok {
			continue
		}
		j := encodeJobs([]server.Spec{{
			Workloads: []string{c.Workload}, Archs: []string{c.Arch}, Minibatches: []int{c.MB},
			Modes: []string{c.Mode}, Iterations: c.Iters, Predict: h.w.predict, Format: "csv",
		}})[0]
		r := run(ctx, h.hc, d, j, time.Now(), false, false)
		if r.err != nil {
			return fmt.Errorf("reference cell %s: %w", c.rowKey(), r.err)
		}
		h.out.add(j, r.body)
	}
	return nil
}

// record checks a finished window job's output and, in a traced run, adds
// its trace to the breakdown.
func (h *harness) record(r *jobRec) {
	if r.err == nil && !h.out.add(r.job, r.body) {
		r.err = errors.New("wrong output")
	}
	r.body = nil
	h.spans.add("server", "submit", r.sent, r.accepted)
	var t jobTrace
	if r.err == nil && h.cfg.traced {
		h.spans.add("server", "result", r.fetchSent, r.done)
		var err error
		if t, err = parseJobTrace(r.trace); err != nil {
			r.err = err
		}
		r.trace = nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r)
	if r.err == nil && h.cfg.traced {
		h.bd.add(r, t)
	}
}

// latencies returns the completed window jobs' latencies (ms), the number
// of cells they answered and the busy time: how long at least one job was
// outstanding, from when it was due to be sent until its result arrived.
func (h *harness) latencies() (lat []float64, cells int, busy time.Duration) {
	var spans [][2]time.Time
	for _, r := range h.recs {
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.latency()))
		cells += len(r.job.cells)
		spans = append(spans, [2]time.Time{r.from(), r.done})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	var end time.Time
	for _, sp := range spans {
		if sp[0].After(end) {
			end = sp[0]
		}
		if sp[1].After(end) {
			busy += sp[1].Sub(end)
			end = sp[1]
		}
	}
	return lat, cells, busy
}

// endToEnd fills the end-to-end metrics, each scaled by the machine's speed
// in the window to what it would read on the reference machine.
func (h *harness) endToEnd(m map[string]float64) {
	lat, cells, busy := h.latencies()
	// Cells per second of busy time: in a closed loop that is the window,
	// less the daemon restarts between passes; in the open loop the time
	// the server spent on the bursts, which a faster server shortens.
	m["cells_per_s"] = ratio(float64(cells), busy.Seconds()) / h.speed
	m["job_p50_ms"] = quantile(lat, 0.5) * h.speed
	m["job_p90_ms"] = quantile(lat, 0.9) * h.speed
}

func (h *harness) perLayer(m map[string]float64) error {
	lat, _, _ := h.latencies()
	var submit, fetchRTT, late []float64
	refused := 0
	for _, r := range h.recs {
		if r.refused {
			refused++
		}
		if r.err != nil {
			continue
		}
		submit = append(submit, ms(r.accepted.Sub(r.sent)))
		fetchRTT = append(fetchRTT, ms(r.done.Sub(r.fetchSent)))
		late = append(late, ms(r.sent.Sub(r.due)))
	}
	m["server.submit_p50_ms"] = quantile(submit, 0.5)
	m["server.result_fetch_p50_ms"] = quantile(fetchRTT, 0.5)
	m["server.refused"] = float64(refused)
	m["server.start_ms"] = quantile(h.starts, 0.5)
	h.bd.metrics(m)

	s := h.stats
	m["store.mem_hits"] = float64(s.MemHits)
	m["store.disk_hits"] = float64(s.DiskHits)
	m["store.misses"] = float64(s.Misses)
	m["store.puts"] = float64(s.Puts)
	m["store.coalesced"] = float64(s.Coalesced)
	m["store.hit_ratio"] = ratio(float64(s.MemHits+s.DiskHits), float64(s.MemHits+s.DiskHits+s.Misses))

	pct, tailMS := tail(lat)
	m["bench.jobs"] = float64(len(lat))
	m["bench.traced_job_p50_ms"] = quantile(lat, 0.5) * h.speed
	m["bench.probe_us"] = h.probeUS
	m["bench.job_p95_ms"] = quantile(lat, 0.95)
	m["bench.job_p99_ms"] = quantile(lat, 0.99)
	m["bench.tail_pct"] = pct
	m["bench.tail_ms"] = tailMS
	m["bench.gen_late_p95_ms"] = quantile(late, 0.95)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	m["bench.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB

	t := time.Now()
	err := probeAll(h, m)
	h.spans.since("bench", "probes", t)
	return err
}
