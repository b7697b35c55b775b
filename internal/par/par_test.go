package par

import (
	"runtime"
	"sync"
	"testing"
)

// withBudget sets the budget width to n for one test. At cleanup it
// requires that nobody is left waiting and that a fresh acquire sees the
// full budget, so a test that loses or leaks a token fails.
func withBudget(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() {
		defer SetWorkers(prev)
		if q := Waiting(); q != 0 {
			t.Fatalf("%d waiters still queued", q)
		}
		for i := 0; i < n; i++ {
			if !TryAcquire() {
				t.Fatalf("budget leaked: took %d of %d tokens", i, n)
			}
		}
		if TryAcquire() {
			t.Fatalf("took %d tokens from a budget of %d", n+1, n)
		}
		for i := 0; i < n; i++ {
			Release()
		}
	})
}

// waitQueued yields until n Acquire calls are waiting. It counts waiters,
// not time, so a slow scheduler only makes it spin longer.
func waitQueued(n int) {
	for Waiting() != n {
		runtime.Gosched()
	}
}

// TestAcquireGrantsInArrivalOrder queues waiters one at a time behind a
// full budget and requires each release to wake the oldest one.
func TestAcquireGrantsInArrivalOrder(t *testing.T) {
	withBudget(t, 1)
	if !TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	const n = 5
	order := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !Acquire(nil) {
				t.Error("Acquire without cancel returned false")
				return
			}
			order <- i
			Release()
		}(i)
		waitQueued(i + 1)
	}
	Release()
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("grant %d went to waiter %d", want, got)
		}
		want++
	}
	if want != n {
		t.Fatalf("%d of %d waiters were granted", want, n)
	}
}

// TestTryAcquireLosesToQueuedWaiter is the leased sweep worker's cell
// boundary: a holder that releases its token and tries to take it straight
// back must lose it to the waiter queued meanwhile.
func TestTryAcquireLosesToQueuedWaiter(t *testing.T) {
	withBudget(t, 2)
	if !TryAcquire() || !TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	granted := make(chan bool)
	go func() { granted <- Acquire(nil) }()
	waitQueued(1)
	if TryAcquire() {
		t.Fatal("TryAcquire took a token from a full budget")
	}
	Release()
	if TryAcquire() {
		t.Fatal("TryAcquire took back a token a waiter was queued for")
	}
	if !<-granted {
		t.Fatal("queued waiter was not granted the released token")
	}
	Release() // the waiter's token
	Release() // the token still held since the start
}

// TestCancelledWaiterTakesNoToken cancels a waiter before any grant: it
// must return false, leave the queue, and not hold up the waiter behind it.
func TestCancelledWaiterTakesNoToken(t *testing.T) {
	withBudget(t, 1)
	if !TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	cancel := make(chan struct{})
	first := make(chan bool)
	go func() { first <- Acquire(cancel) }()
	waitQueued(1)
	second := make(chan bool)
	go func() { second <- Acquire(nil) }()
	waitQueued(2)

	close(cancel)
	if <-first {
		t.Fatal("cancelled waiter reported a token")
	}
	if q := Waiting(); q != 1 {
		t.Fatalf("%d waiters queued after the cancel, want 1", q)
	}
	Release()
	if !<-second {
		t.Fatal("waiter behind a cancelled one was not granted")
	}
	Release()
}

// TestGrantRacingCancelIsPassedOn closes a waiter's cancel channel and
// grants it the token in one critical section, so the waiter wakes with
// both ready. Whichever it picks, the token must not be lost: either the
// waiter reports it, or it passes it on to the next waiter. The race is
// repeated until the pass-on branch has run.
func TestGrantRacingCancelIsPassedOn(t *testing.T) {
	withBudget(t, 1)
	if !TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	passedOn := 0
	for round := 0; round < 1000 && passedOn < 3; round++ {
		cancel := make(chan struct{})
		racer := make(chan bool)
		go func() { racer <- Acquire(cancel) }()
		waitQueued(1)
		next := make(chan bool)
		go func() { next <- Acquire(nil) }()
		waitQueued(2)

		mu.Lock()
		close(cancel)
		releaseLocked() // grants the racer, which cannot have left the queue
		mu.Unlock()
		if <-racer {
			Release() // the racer kept the token; hand it on by hand
		} else {
			passedOn++
		}
		if !<-next {
			t.Fatal("the token granted to a cancelled waiter was lost")
		}
		// next holds the token now; it stands in for the one taken at the
		// start for the following round.
	}
	Release()
	if passedOn == 0 {
		t.Fatal("the pass-on branch never ran in 1000 rounds")
	}
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
