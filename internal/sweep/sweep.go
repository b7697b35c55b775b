// Package sweep is the parallel configuration-sweep engine: it shards
// independent simulations (architecture config × workload × minibatch ×
// mode) across a goroutine worker pool so design-space tables and
// per-workload figures regenerate at the machine's core count instead of
// one simulation at a time.
//
// Design constraints, in order:
//
//   - Determinism. Results are keyed by input index, never by completion
//     order: the same sweep spec produces byte-identical tables whether it
//     runs on one worker or sixteen. Per-job telemetry registries are
//     merged in job order after the pool drains for the same reason.
//   - Isolation. Every job gets its own simulator machine, compiler output
//     and (when requested) telemetry registry; nothing mutable is shared
//     between workers, which keeps the engine clean under `go test -race`.
//   - Fail fast. The first job error cancels the context the remaining
//     jobs observe; Run reports the lowest-indexed error so failure output
//     is reproducible too.
//
// The engine is two layers: Run/Map (generic worker pool, this file) and
// Grid/RunGrid (the simulation grid runner, grid.go). cmd/sdsweep exposes
// the grid on the command line; internal/report and the bench harness run
// their table-regeneration loops through Map.
package sweep

import (
	"context"
	"sync"
	"sync/atomic"

	"scaledeep/internal/par"
	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
)

// Options configure a sweep run.
type Options struct {
	// Workers is the most cells the run works on at once; <= 0 means
	// par.Workers(). The calling goroutine is the first worker and each
	// further one leases a token of the machine-wide internal/par budget
	// (see Run), so a run gets at most par.Workers() workers beside its
	// caller however many it asks for. One worker reproduces the serial
	// path exactly.
	Workers int
	// Progress, when non-nil, is called after every job completes with the
	// number of finished jobs and the total. Calls are serialized and done
	// is strictly increasing, so the callback can publish a live progress
	// document (sdsweep wires it to the -serve mux) without its own locking.
	Progress func(done, total int)
	// Metrics, when non-nil, receives the merge of every job's isolated
	// telemetry registry once the pool drains (counters and histograms add;
	// merging happens in job order so the combined snapshot is
	// deterministic). Jobs observe their private registry via the fn
	// argument; when Metrics is nil no per-job registries are allocated and
	// fn receives nil.
	Metrics *telemetry.Registry
	// Store, when non-nil, adds a persistent tier under the in-run cell
	// classes: RunGrid consults the store's in-process map, then disk, and
	// only simulates on a miss, writing the result back for the next run.
	Store *store.Store
	// VerifyStore re-simulates a deterministic ~25% sample of store hits
	// and byte-compares the stored blob against a fresh encoding, failing
	// the sweep on any difference.
	VerifyStore bool
	// Predictor, when non-nil, adds the learned fast path above the exact
	// simulator: a cell the predictor is confident about gets a labeled
	// predicted result (Result.Source = SourcePredicted) in microseconds
	// instead of a simulation; everything else — store hits included, which
	// always win — runs exactly as without a predictor, byte for byte. See
	// predict.go and DESIGN.md §5h.
	Predictor Predictor
	// Trace, when non-nil, collects one job-scoped span timeline across the
	// whole sweep: per-cell store-lookup/simulate/store-write spans plus the
	// simulator's own per-tile op spans, each cell on its own deterministic
	// lane (see telemetry.JobTrace). Lanes are keyed by cell class index, so
	// the assembled trace is identical at any Workers count.
	Trace *telemetry.JobTrace
}

// Run executes fn for every index in [0, n) across the worker pool. fn must
// be safe to call concurrently with distinct indices; reg is the job's
// private telemetry registry (nil unless opts.Metrics is set). The first
// error cancels the context seen by jobs that have not finished; Run then
// waits for in-flight jobs and returns the lowest-indexed error. Jobs that
// never started due to cancellation are skipped silently.
func Run(ctx context.Context, n int, opts Options, fn func(ctx context.Context, index int, reg *telemetry.Registry) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errs = make([]error, n)
		regs []*telemetry.Registry
		next atomic.Int64
		done int
		mu   sync.Mutex // guards done and serializes the Progress callback
		wg   sync.WaitGroup
	)
	if opts.Metrics != nil {
		regs = make([]*telemetry.Registry, n)
	}
	// worker claims and runs cells until the index space or the context is
	// exhausted. A leased worker owns one par token while it works. It
	// releases the token between cells, which hands it to the oldest
	// waiting Acquire if there is one, and retires when it cannot take a
	// token back; its remaining cells drain through the other workers. Cell
	// results are keyed by index, so worker attrition never affects output.
	worker := func(leased bool) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || ctx.Err() != nil {
				if leased {
					par.Release()
				}
				return
			}
			var reg *telemetry.Registry
			if regs != nil {
				reg = telemetry.NewRegistry()
				regs[i] = reg
			}
			if err := fn(ctx, i, reg); err != nil {
				errs[i] = err
				cancel()
			}
			if opts.Progress != nil {
				mu.Lock()
				done++
				opts.Progress(done, n)
				mu.Unlock()
			}
			if leased {
				par.Release()
				if !par.TryAcquire() {
					return
				}
			}
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	for w := 1; w < min(workers, n) && par.TryAcquire(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(true)
		}()
	}
	// The calling goroutine is the run's first worker and takes no token, so
	// every run progresses even with the budget exhausted. An sdserve job's
	// caller runs on the token the dispatcher took for the job.
	worker(false)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Merge per-job registries in job order only after every worker has
	// stopped recording, so the combined snapshot is a quiescent copy.
	if opts.Metrics != nil {
		for _, reg := range regs {
			if reg == nil {
				continue // job never started (cancelled sweep)
			}
			if err := opts.Metrics.MergeFrom(reg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Map runs fn over every item and returns the results in input order —
// the deterministic fan-out primitive behind the table-regeneration paths.
func Map[T, R any](ctx context.Context, items []T, opts Options, fn func(ctx context.Context, index int, item T, reg *telemetry.Registry) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	err := Run(ctx, len(items), opts, func(ctx context.Context, i int, reg *telemetry.Registry) error {
		r, err := fn(ctx, i, items[i], reg)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
