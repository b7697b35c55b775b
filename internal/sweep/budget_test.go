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

// TestBudgetWorkersNoOversubscription is the scheduler's core invariant at
// the sweep layer: N concurrent BudgetWorkers runs — each admitted the way
// sdserve admits jobs, holding one par token for its first worker — keep
// the total number of live cell workers at or below par.Workers(), no
// matter how many workers each run requests.
func TestBudgetWorkersNoOversubscription(t *testing.T) {
	const budget = 4
	prev := par.SetWorkers(budget)
	defer par.SetWorkers(prev)

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
			errs[r] = Run(context.Background(), cells,
				Options{Workers: budget, BudgetWorkers: true}, fn)
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

// TestBudgetWorkersMatchesUnbudgeted: leasing changes scheduling only —
// a budgeted run completes every cell exactly once, like an unbudgeted one.
func TestBudgetWorkersMatchesUnbudgeted(t *testing.T) {
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)

	const cells = 50
	for _, budgeted := range []bool{false, true} {
		var ran [cells]atomic.Int64
		err := Run(context.Background(), cells,
			Options{Workers: 4, BudgetWorkers: budgeted},
			func(ctx context.Context, i int, reg *telemetry.Registry) error {
				ran[i].Add(1)
				return nil
			})
		if err != nil {
			t.Fatalf("budgeted=%v: %v", budgeted, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("budgeted=%v: cell %d ran %d times", budgeted, i, n)
			}
		}
	}
}
