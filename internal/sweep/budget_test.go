package sweep

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaledeep/internal/par"
	"scaledeep/internal/telemetry"
)

// widenBudget sizes the internal/par budget to n tokens for the rest of
// the test, so a run that asks for n workers gets all of them at once: its
// calling goroutine plus n-1 leased workers, on a host of any core count.
func widenBudget(t testing.TB, n int) {
	t.Helper()
	prev := par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(prev) })
}

// TestLeasedWorkersNoOversubscription is the scheduler's core invariant at
// the sweep layer: N concurrent runs — each admitted the way sdserve admits
// jobs, holding one par token for its first worker — keep the total number
// of live cell workers at or below par.Workers(), no matter how many
// workers each run requests.
func TestLeasedWorkersNoOversubscription(t *testing.T) {
	const budget = 4
	widenBudget(t, budget)

	const (
		runs     = 3
		cells    = 24
		cellTime = 2 * time.Millisecond
	)
	var (
		live atomic.Int64
		peak atomic.Int64
	)
	fn := func(ctx context.Context, i int, reg *telemetry.Registry) error {
		now := live.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		time.Sleep(cellTime) // hold the worker long enough for runs to overlap
		live.Add(-1)
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Every run, the first included, holds a seat for its first
			// worker, exactly as the sdserve scheduler does per admitted job.
			if !par.Acquire(nil) {
				t.Error("Acquire returned without a token")
				return
			}
			errs[r] = Run(context.Background(), cells, Options{Workers: budget}, fn)
			par.Release()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}
	if got := peak.Load(); got > budget {
		t.Fatalf("peak live workers %d exceeded the %d-token machine budget", got, budget)
	}
	// Every token must have come back: a fresh acquire sees the full budget.
	for i := 0; i < budget; i++ {
		if !par.TryAcquire() {
			t.Fatalf("budget leaked: re-acquired %d of %d tokens", i, budget)
		}
	}
	for i := 0; i < budget; i++ {
		par.Release()
	}
}

// TestLeasedRunRunsEveryCellOnce: leasing changes scheduling only — a run
// whose workers come and go with their tokens completes every cell exactly
// once.
func TestLeasedRunRunsEveryCellOnce(t *testing.T) {
	widenBudget(t, 4)

	const cells = 50
	var ran [cells]atomic.Int64
	err := Run(context.Background(), cells, Options{Workers: 4},
		func(ctx context.Context, i int, reg *telemetry.Registry) error {
			ran[i].Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}
