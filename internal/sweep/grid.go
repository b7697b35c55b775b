package sweep

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/par"
	"scaledeep/internal/sim"
	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
	"scaledeep/internal/zoo"
)

// Grid is a sweep specification: the cross product of its axes, enumerated
// workload-major (workload, then arch, then minibatch, then mode) so job
// indices — and therefore table row order — are stable for a given spec.
type Grid struct {
	Workloads   []string // workload names (see Workloads)
	Archs       []string // chip configs (see Archs)
	Minibatches []int    // minibatch sizes, each ≥ 1
	Modes       []string // "eval" (FP only) and/or "train" (FP+BP+WG)
	Iterations  int      // training iterations per job, at most math.MaxInt32; 0 means 1
}

// Workloads lists the cycle-simulator workload catalog: networks small
// enough for the functional simulator to execute whole, mirroring the nets
// the CLI tools simulate (sdsim's simnet, sdtrain's trainnet, sdprof's
// MiniVGG reference workload) plus fcnet, an FC-only stack that exercises
// the MLP/LSTM-style layer balance of the paper's Table 2.
func Workloads() []string { return []string{"simnet", "trainnet", "minivgg", "fcnet"} }

// Archs lists the chip configurations a grid can sweep: the Fig. 14
// single-precision baseline and the Fig. 17 half-precision design.
func Archs() []string { return []string{"baseline", "half"} }

// Job is one grid point.
type Job struct {
	Index     int
	Workload  string
	Arch      string
	Minibatch int
	Mode      string
	Iters     int
}

// Name returns the job's stable identifier, e.g. "simnet/baseline/mb2/eval".
func (j Job) Name() string {
	return fmt.Sprintf("%s/%s/mb%d/%s", j.Workload, j.Arch, j.Minibatch, j.Mode)
}

// Result sources distinguish how a row's measurements were obtained: every
// simulated (or store-replayed) cell is exact; only the learned fast path
// (Options.Predictor) produces predicted rows.
const (
	SourceExact     = "exact"
	SourcePredicted = "predicted"
)

// Result is one completed grid point, keyed by the job that produced it.
type Result struct {
	Job
	Cycles       int64
	Instructions int64
	FLOPs        int64
	PEUtil       float64
	CompMemBytes int64
	MemMemBytes  int64
	ExtMemBytes  int64
	NACKs        int64
	// Checksum is the sum of the last image's output vector — a functional
	// fingerprint that makes cross-parallelism determinism checkable from
	// the table itself.
	Checksum float32

	// Cycle-stall attribution summed over the chip's CompHeavy tiles
	// (sim.Stats.AttrTotal, with the tracker-nack/tracker-wait pair folded
	// into one tracker bucket and drain/idle into other). The five buckets
	// sum to Cycles × NumCompHeavy tiles — the labels the learned cycle
	// predictor trains on.
	AttrCompute int64
	AttrDMAWait int64
	AttrTracker int64
	AttrLink    int64
	AttrOther   int64

	// Source is SourceExact for simulated or store-replayed measurements
	// and SourcePredicted for learned fast-path estimates.
	Source string
}

// Jobs enumerates and validates the grid.
func (g Grid) Jobs() ([]Job, error) {
	if len(g.Workloads) == 0 || len(g.Archs) == 0 || len(g.Minibatches) == 0 || len(g.Modes) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one workload, arch, minibatch and mode")
	}
	iters := g.Iterations
	if iters <= 0 {
		iters = 1
	}
	if iters > math.MaxInt32 {
		return nil, fmt.Errorf("sweep: %d iterations out of range (max %d)", iters, math.MaxInt32)
	}
	var jobs []Job
	for _, wl := range g.Workloads {
		if _, err := buildWorkload(wl); err != nil {
			return nil, err
		}
		for _, ar := range g.Archs {
			if _, _, err := chipFor(ar); err != nil {
				return nil, err
			}
			for _, mb := range g.Minibatches {
				if mb < 1 {
					return nil, fmt.Errorf("sweep: minibatch %d out of range", mb)
				}
				for _, mode := range g.Modes {
					if mode != "eval" && mode != "train" {
						return nil, fmt.Errorf("sweep: unknown mode %q (want eval or train)", mode)
					}
					jobs = append(jobs, Job{
						Index: len(jobs), Workload: wl, Arch: ar,
						Minibatch: mb, Mode: mode, Iters: iters,
					})
				}
			}
		}
	}
	return jobs, nil
}

// cellKey is the semantic identity of a grid point: two jobs with equal keys
// run the same simulation (workload construction, chip config, inputs and
// program are all deterministic functions of the key), so their results are
// interchangeable. Iterations are normalized out for eval cells, which
// always run one pass regardless of Grid.Iterations.
type cellKey struct {
	Workload, Arch string
	Minibatch      int
	Mode           string
	Iters          int
}

func (j Job) cellKey() cellKey {
	iters := j.Iters
	if j.Mode != "train" {
		iters = 1
	}
	return cellKey{
		Workload:  strings.ToLower(j.Workload),
		Arch:      strings.ToLower(j.Arch),
		Minibatch: j.Minibatch,
		Mode:      j.Mode,
		Iters:     iters,
	}
}

// RunGrid runs every grid point on the cycle-level simulator and returns the
// results in job order. Each job resolves on its own trace lane through
// resolveCell: it compiles its own program, simulates on a machine from the
// process-wide per-arch pool and records into its own telemetry registry,
// so jobs shard cleanly across opts.Workers. The registries are merged into
// opts.Metrics in job order.
//
// With opts.Store set, a job consults the persistent result store before
// simulating (memory tier, then disk; see store.go and DESIGN.md §5f) and
// writes a fresh result back, so a repeated sweep across process restarts
// replays from disk with byte-identical tables and merged metrics, and a
// cell the grid lists twice simulates once: the memory tier or the store's
// single-flight answers the repeat. Without a store a repeat simulates
// again. opts.VerifyStore re-simulates a deterministic sample of hits and
// byte-compares blobs.
func RunGrid(ctx context.Context, g Grid, opts Options) ([]Result, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	// resolveCell hands back each job's registry (a simulated one or a
	// stored blob's), so the pool allocates none and merging happens here.
	inner := opts
	inner.Metrics = nil
	regs := make([]*telemetry.Registry, len(jobs))
	results, err := Map(ctx, jobs, inner, func(ctx context.Context, i int, job Job, _ *telemetry.Registry) (Result, error) {
		// One deterministic trace lane per job, written only by the worker
		// that owns it, so the assembled trace is independent of worker
		// scheduling.
		var tc telemetry.TraceContext
		if opts.Trace != nil {
			tc = opts.Trace.Context(i, "cell/"+job.Name())
		}
		r, reg, err := resolveCell(ctx, job, tc, opts)
		regs[i] = reg
		return r, err
	})
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		for i, r := range results {
			if err := opts.Metrics.MergeFrom(regs[i]); err != nil {
				return nil, err
			}
			recordJobMetrics(opts.Metrics, r)
		}
		if opts.Predictor != nil {
			recordPredictMetrics(opts.Metrics, results)
		}
	}
	return results, nil
}

// resolveCell answers one grid job: a stored result (audited under
// opts.VerifyStore), else a confident prediction, else exact simulation —
// under the store's single-flight when opts.Store is set, so concurrent
// jobs racing on the key simulate it once and share the leader's bytes.
// Every step records its span on tc. The returned registry holds the cell's
// telemetry; it is nil for predicted cells and for storeless runs that keep
// no metrics.
func resolveCell(ctx context.Context, job Job, tc telemetry.TraceContext, opts Options) (Result, *telemetry.Registry, error) {
	var key string
	if opts.Store != nil {
		// The span covers key derivation as well as the lookup. The blob
		// carries the cell's telemetry, so hits and misses contribute
		// identical metric merges.
		endGet := tc.Begin("store.get")
		var err error
		if key, err = storeKey(job); err != nil {
			endGet(outcome("error"))
			return Result{}, nil, err
		}
		payload, ok, err := opts.Store.Get(key)
		switch {
		case err != nil:
			endGet(outcome("error"))
			return Result{}, nil, err
		case !ok:
			endGet(outcome("miss"))
		default:
			r, reg, derr := decodeBlob(job, payload)
			if derr != nil {
				// Framing-valid but undecodable (e.g. a schema the key
				// somehow admitted): quarantine, then answer as a miss.
				endGet(outcome("quarantined"))
				if err := opts.Store.Quarantine(key); err != nil {
					return Result{}, nil, err
				}
				break
			}
			endGet(outcome("hit"))
			if opts.VerifyStore && auditHit(key) {
				endVerify := tc.Begin("store.verify")
				err := verifyStoredHit(job, key, payload)
				endVerify(outcomeOf(err))
				if err != nil {
					return Result{}, nil, err
				}
			}
			return r, reg, nil
		}
	}
	// Learned fast path: consulted only after the store misses (an exact
	// answer always beats a predicted one). A confident prediction skips
	// simulation and store write-back; a fallback continues untouched.
	if opts.Predictor != nil {
		endPredict := tc.Begin("predict")
		if r, ok := predictJob(opts.Predictor, job); ok {
			endPredict(outcome("hit"))
			return r, nil, nil
		}
		endPredict(outcome("fallback"))
	}
	if opts.Store == nil {
		return simulate(job, tc, opts.Metrics != nil)
	}
	// A coalesced payload is decoded exactly like a store hit —
	// decode(encode(x)) == x is the §5f round-trip property — so coalescing
	// can change wall-clock time only, never a result.
	var (
		r   Result
		reg *telemetry.Registry
	)
	endFlight := tc.Begin("store.flight")
	payload, flight, err := opts.Store.GetOrCompute(ctx, key, func() ([]byte, error) {
		// The blob always carries the cell's metrics so it serves future
		// runs that do ask for metrics.
		var err error
		if r, reg, err = simulate(job, tc, true); err != nil {
			return nil, err
		}
		p := encodeBlob(r, reg)
		endPut := tc.Begin("store.put")
		err = opts.Store.Put(key, p)
		endPut(outcomeOf(err))
		return p, err
	})
	switch {
	case err != nil:
		endFlight(outcome("error"))
		return Result{}, nil, err
	case flight == store.FlightCoalesced:
		endFlight(outcome("coalesced"))
		return decodeBlob(job, payload)
	}
	endFlight(outcome("computed"))
	return r, reg, nil
}

// simulate runs the exact simulator on one cell under a "simulate" span.
// The cell's registry is nil unless metrics is set.
func simulate(job Job, tc telemetry.TraceContext, metrics bool) (Result, *telemetry.Registry, error) {
	var reg *telemetry.Registry
	if metrics {
		reg = telemetry.NewRegistry()
	}
	end := tc.Begin("simulate")
	r, err := runJob(job, reg, tc)
	end(outcomeOf(err))
	return r, reg, err
}

// recordJobMetrics adds the per-job labeled series derived from one result.
// It runs outside runJob so a result replayed from the store is attributed
// to the job that asked for it.
func recordJobMetrics(reg *telemetry.Registry, r Result) {
	if reg == nil {
		return
	}
	// Per-job labeled metrics survive the merge individually (the unlabeled
	// sim.* series aggregate across the whole sweep).
	lbl := telemetry.Label{Key: "job", Value: r.Name()}
	reg.Counter("sweep.job.cycles", lbl).Add(r.Cycles)
	reg.Counter("sweep.jobs").Inc()
}

// machinePool recycles simulator machines per chip configuration across
// every RunGrid call in the process, so successive jobs — a daemon's jobs
// among them — run on reset machines instead of building new ones. Reset
// restores the exact post-NewMachine state (see sim.Machine.Reset), so
// results are independent of reuse history. At most par.Workers() idle
// machines are kept per arch; the rest go to the garbage collector. A kept
// machine holds the external-memory extents every run on it has touched,
// so an idle machine's footprint is bounded by the largest regions its
// arch's workloads use, not by the number of runs.
type machinePool struct {
	mu            sync.Mutex
	free          map[string][]*sim.Machine
	built, reused atomic.Int64
}

// machines is the process-wide pool behind runJob.
var machines = machinePool{free: map[string][]*sim.Machine{}}

// MachineCounts reports how many machines the process-wide pool has built
// and how many times it has handed out a reused one.
func MachineCounts() (built, reused int64) {
	return machines.built.Load(), machines.reused.Load()
}

// get returns a machine in its post-NewMachine state for the arch, reusing
// an idle one when available.
func (p *machinePool) get(key string, chip arch.ChipConfig, prec arch.Precision) *sim.Machine {
	p.mu.Lock()
	l := p.free[key]
	if n := len(l); n > 0 {
		m := l[n-1]
		p.free[key] = l[:n-1]
		p.mu.Unlock()
		p.reused.Add(1)
		return m
	}
	p.mu.Unlock()
	p.built.Add(1)
	return sim.NewMachine(chip, prec, true)
}

// put resets m and keeps it idle, unless the arch already has
// par.Workers() idle machines, in which case m goes to the garbage
// collector unreset. The bound is checked again after the Reset, which runs
// outside the lock, since a concurrent put may have filled the last slot.
// Resetting here rather than in get lets go of the finished job's telemetry
// hooks as soon as it is done with them.
func (p *machinePool) put(key string, m *sim.Machine) {
	p.mu.Lock()
	full := len(p.free[key]) >= par.Workers()
	p.mu.Unlock()
	if full {
		return
	}
	m.Reset()
	p.mu.Lock()
	if len(p.free[key]) < par.Workers() {
		p.free[key] = append(p.free[key], m)
	}
	p.mu.Unlock()
}

// buildWorkload constructs a fresh network for a catalog entry. Every call
// returns a new DAG so parallel jobs never share layer state.
func buildWorkload(name string) (*dnn.Network, error) {
	switch strings.ToLower(name) {
	case "simnet": // sdsim's demo network
		b := dnn.NewBuilder("simnet")
		in := b.Input(3, 12, 12)
		c1 := b.Conv(in, "c1", 6, 3, 1, 1, tensor.ActReLU)
		p1 := b.MaxPool(c1, "s1", 2, 2)
		c2 := b.Conv(p1, "c2", 8, 3, 1, 1, tensor.ActTanh)
		b.FC(c2, "f1", 10, tensor.ActNone)
		return b.Build(), nil
	case "trainnet": // sdtrain's demo network
		b := dnn.NewBuilder("trainnet")
		in := b.Input(2, 10, 10)
		c1 := b.Conv(in, "c1", 4, 3, 1, 1, tensor.ActTanh)
		p1 := b.MaxPool(c1, "s1", 2, 2)
		b.FC(p1, "f1", 4, tensor.ActNone)
		return b.Build(), nil
	case "minivgg": // sdprof's reference workload
		return zoo.MiniVGG(), nil
	case "fcnet": // FC-heavy stack (classifier-style layer balance)
		b := dnn.NewBuilder("fcnet")
		in := b.Input(1, 8, 8)
		f1 := b.FC(in, "f1", 32, tensor.ActReLU)
		f2 := b.FC(f1, "f2", 16, tensor.ActTanh)
		b.FC(f2, "f3", 10, tensor.ActNone)
		return b.Build(), nil
	}
	return nil, fmt.Errorf("sweep: unknown workload %q (want %s)", name, strings.Join(Workloads(), ", "))
}

// chipFor maps an arch name to the simulated chip configuration and
// datapath precision. The chip is cut down to the same 3-row grid the CLI
// tools simulate so one job fits comfortably in a test run.
func chipFor(name string) (arch.ChipConfig, arch.Precision, error) {
	switch strings.ToLower(name) {
	case "baseline":
		chip := arch.Baseline().Cluster.Conv
		chip.Rows, chip.Cols = 3, 8
		return chip, arch.Single, nil
	case "half":
		chip := arch.HalfPrecision().Cluster.Conv
		chip.Rows, chip.Cols = 3, 8
		return chip, arch.Half, nil
	}
	return arch.ChipConfig{}, 0, fmt.Errorf("sweep: unknown arch %q (want %s)", name, strings.Join(Archs(), ", "))
}

// outcome is a span's outcome attribute.
func outcome(v string) telemetry.Attr { return telemetry.Attr{Key: "outcome", Value: v} }

// outcomeOf renders an error as a span outcome attribute.
func outcomeOf(err error) telemetry.Attr {
	if err != nil {
		return outcome("error")
	}
	return outcome("ok")
}

// runJob compiles and simulates one grid point. Inputs are seeded from the
// same fixed PRNG stream per job spec, so a job's result depends only on its
// spec — never on which worker ran it or when. That purity is what both the
// cross-parallelism determinism guarantee and the result store rest on.
//
// tc, unless it is the zero TraceContext, is the cell's trace lane: it
// receives the simulator's per-tile op spans (cycle timestamps on
// "comp[...]"/"mem[...]" tracks under the lane prefix). Cycle streams are
// deterministic per spec, so traced spans never break cross-parallelism
// determinism.
func runJob(job Job, reg *telemetry.Registry, tc telemetry.TraceContext) (Result, error) {
	fail := func(err error) (Result, error) {
		return Result{}, fmt.Errorf("sweep: %s: %w", job.Name(), err)
	}
	net, err := buildWorkload(job.Workload)
	if err != nil {
		return Result{}, err
	}
	chip, prec, err := chipFor(job.Arch)
	if err != nil {
		return Result{}, err
	}
	train := job.Mode == "train"
	iters := 1
	if train {
		iters = job.Iters
	}
	c, err := compiler.Compile(net, chip, compiler.Options{
		Minibatch: job.Minibatch, Iterations: iters, Training: train, LR: 0.0625,
	})
	if err != nil {
		return fail(err)
	}
	poolKey := strings.ToLower(job.Arch)
	m := machines.get(poolKey, chip, prec)
	defer machines.put(poolKey, m)
	if reg != nil {
		m.SetMetrics(reg)
	}
	m.SetSpanSink(tc)
	// The row's one data value is the last image's output, so the machine
	// computes only the data that output depends on.
	if err := c.InstallLastOutput(m); err != nil {
		return fail(err)
	}
	if err := loadCell(c, m, net, job); err != nil {
		return fail(err)
	}
	st, err := m.Run()
	if err != nil {
		return fail(err)
	}
	return cellResult(job, st, c.ReadOutput(m, job.Minibatch-1)), nil
}

// loadCell loads a cell's data onto a machine c is installed on: weights
// from a bias-free executor, and the minibatch's inputs (plus golden
// outputs in training) from a fixed PRNG stream, so the data depend only
// on the job's spec.
func loadCell(c *compiler.Compiled, m *sim.Machine, net *dnn.Network, job Job) error {
	e := dnn.NewExecutor(net, 1)
	e.NoBias = true
	if err := c.LoadWeights(m, e); err != nil {
		return err
	}
	inShape := net.Layers[0].Out
	outElems := net.OutputLayer().Out.Elems()
	rng := tensor.NewRNG(7)
	inputs := make([]*tensor.Tensor, job.Minibatch)
	golden := make([]*tensor.Tensor, job.Minibatch)
	for i := range inputs {
		inputs[i] = tensor.New(inShape.C, inShape.H, inShape.W)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(outElems)
		rng.FillUniform(golden[i], 1)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		return err
	}
	if job.Mode == "train" {
		return c.LoadGolden(m, golden)
	}
	return nil
}

// cellResult is a cell's row: the run's statistics, and the sum of the
// last image's output as its checksum.
func cellResult(job Job, st sim.Stats, lastOutput []float32) Result {
	var checksum float32
	for _, v := range lastOutput {
		checksum += v
	}
	attr := st.AttrTotal()
	return Result{
		Job:          job,
		Cycles:       int64(st.Cycles),
		Instructions: st.Instructions,
		FLOPs:        st.FLOPs,
		PEUtil:       st.PEUtilization(),
		CompMemBytes: st.CompMemBytes,
		MemMemBytes:  st.MemMemBytes,
		ExtMemBytes:  st.ExtMemBytes,
		NACKs:        st.NACKs,
		Checksum:     checksum,
		AttrCompute:  int64(attr[sim.AttrCompute]),
		AttrDMAWait:  int64(attr[sim.AttrDMAWait]),
		AttrTracker:  int64(attr[sim.AttrTrackNACK] + attr[sim.AttrTrackWait]),
		AttrLink:     int64(attr[sim.AttrLinkContend]),
		AttrOther:    int64(attr[sim.AttrDrain] + attr[sim.AttrIdle]),
		Source:       SourceExact,
	}
}
