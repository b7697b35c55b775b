package par

import (
	"sync/atomic"
	"testing"
)

// TestForCoversRangeExactlyOnce checks the static partition: every index in
// [0, n) is visited exactly once, for a grid of sizes and worker counts
// including w > n and n == 0.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 33, 100} {
		for _, w := range []int{1, 2, 3, 8, 64} {
			prev := SetWorkers(w)
			visits := make([]int32, n+1)
			For(n, 1, func(lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("n=%d w=%d: bad block [%d,%d)", n, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			SetWorkers(prev)
			for i := 0; i < n; i++ {
				if visits[i] != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, visits[i])
				}
			}
		}
	}
}

// TestForBlocksAreOrderedAndContiguous checks that blocks tile the range in
// ascending order without gaps — the property the kernels rely on to keep
// the serial iteration order inside each block.
func TestForBlocksAreOrderedAndContiguous(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	type blk struct{ lo, hi int }
	blocks := make(chan blk, 16)
	For(10, 1, func(lo, hi int) { blocks <- blk{lo, hi} })
	close(blocks)
	seen := make([]blk, 0, 4)
	for b := range blocks {
		seen = append(seen, b)
	}
	covered := make([]bool, 10)
	for _, b := range seen {
		for i := b.lo; i < b.hi; i++ {
			if covered[i] {
				t.Fatalf("index %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered", i)
		}
	}
}

// TestForMinGrainKeepsSmallWorkSerial verifies that n/minGrain caps the
// worker count, so tiny kernels do not pay goroutine overhead.
func TestForMinGrainKeepsSmallWorkSerial(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	calls := 0
	For(16, 16, func(lo, hi int) { calls++ }) // 16/16 = 1 worker → serial, no races on calls
	if calls != 1 {
		t.Fatalf("expected 1 serial block, got %d", calls)
	}
}

// TestNestedCallsShareBudget verifies the token-budget rule: an outer For
// that borrowed the whole budget leaves nothing for inner calls, so nested
// For runs serial instead of oversubscribing; the combined goroutine count
// never exceeds Workers().
func TestNestedCallsShareBudget(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var innerBlocks, inFlight, peak atomic.Int64
	For(4, 1, func(lo, hi int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		For(8, 1, func(ilo, ihi int) {
			innerBlocks.Add(1)
		})
		inFlight.Add(-1)
	})
	if got := peak.Load(); got > 4 {
		t.Fatalf("outer blocks in flight peaked at %d, budget is 4", got)
	}
	// With the outer call holding every token, each inner call must have
	// collapsed to exactly one serial block.
	if got := innerBlocks.Load(); got != 4 {
		t.Fatalf("expected 4 serial inner calls, got %d", got)
	}
	if got := borrowed.Load(); got != 0 {
		t.Fatalf("%d tokens still on loan after For returned", got)
	}
}

// TestForPanicPropagates verifies worker panics surface on the caller after
// all workers have stopped and the borrowed tokens are returned.
func TestForPanicPropagates(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate")
		}
		if got := borrowed.Load(); got != 0 {
			t.Fatalf("%d tokens leaked after panic", got)
		}
	}()
	For(4, 1, func(lo, hi int) {
		if lo == 0 {
			panic("kernel fault")
		}
	})
}

// TestSetWorkersRoundTrip checks SetWorkers returns the previous value and
// that Workers falls back to GOMAXPROCS for the zero setting.
func TestSetWorkersRoundTrip(t *testing.T) {
	orig := SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	if prev := SetWorkers(0); prev != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", prev)
	}
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d with default setting", got)
	}
	SetWorkers(orig)
}
