package par_test

import (
	"context"
	"runtime"
	"testing"

	"scaledeep/internal/par"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

// TestSeatWaitsOneCell pins how long a job waits to start behind a running
// sweep. A BudgetWorkers sweep holds the whole two-token budget: its
// caller's seat plus one leased worker. A seat requested mid-sweep must be
// granted at the leased worker's next cell boundary, not when the sweep
// runs out of cells. Every cell waits on its own gate and the test opens
// them one at a time, so the wait is counted in cells, not milliseconds.
func TestSeatWaitsOneCell(t *testing.T) {
	prev := par.SetWorkers(2)
	defer par.SetWorkers(prev)

	const cells, request = 40, 4
	gates := make([]chan struct{}, cells)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	entered := make(chan struct{}, cells)
	fn := func(_ context.Context, i int, _ *telemetry.Registry) error {
		entered <- struct{}{}
		<-gates[i]
		return nil
	}

	if !par.Acquire(nil) {
		t.Fatal("fresh budget refused the sweep's seat")
	}
	swept := make(chan error, 1)
	go func() {
		swept <- sweep.Run(context.Background(), cells,
			sweep.Options{Workers: 2, BudgetWorkers: true}, fn)
	}()
	// step opens the next gate and waits until that cell's worker is past
	// its boundary: it starts another cell, or, once a seat is waiting,
	// hands its token to the seat and retires. Once every cell has started
	// there is nothing to wait for.
	next, started := 0, 0
	step := func(seatWaiting bool) {
		close(gates[next])
		next++
		for started < cells {
			select {
			case <-entered:
				started++
				return
			default:
			}
			if seatWaiting && par.Waiting() == 0 {
				return
			}
			runtime.Gosched()
		}
	}
	<-entered // both workers are in a cell: the sweep holds both tokens
	<-entered
	started = 2
	for next < request {
		step(false)
	}

	seated := make(chan bool)
	go func() { seated <- par.Acquire(nil) }()
	for par.Waiting() != 1 {
		runtime.Gosched()
	}
	// Cells request and request+1 are in flight, one on each worker, so
	// the leased worker's boundary comes within two steps.
	waited := 0
	for par.Waiting() > 0 && next < cells {
		step(true)
		waited++
	}
	if !<-seated {
		t.Fatal("seat request returned without a token")
	}
	if waited > 2 {
		t.Fatalf("seat requested at cell %d was granted after %d more cells, want at most 2 (the sweep has %d)",
			request, waited, cells)
	}
	for ; next < cells; next++ {
		close(gates[next])
	}
	if err := <-swept; err != nil {
		t.Fatal(err)
	}
	par.Release() // the new seat
	par.Release() // the sweep's seat
	if !par.TryAcquire() || !par.TryAcquire() || par.TryAcquire() {
		t.Fatal("a fresh acquire does not see exactly the two-token budget")
	}
	par.Release()
	par.Release()
}
