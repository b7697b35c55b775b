// Package par is the machine-wide worker budget: one FIFO semaphore of
// Workers() tokens that every long-lived worker draws from. sdserve holds
// one token per running job for the job's first sweep worker, and each
// job's sweep leases its extra cell workers from the same budget
// (sweep.Options.BudgetWorkers), so concurrent jobs split the cores instead
// of oversubscribing them.
//
// Waiting blocks; nothing polls. Acquire queues its caller, and Release
// hands the token straight to the oldest waiter — the way a MEMTRACK
// tracker wakes a blocked read once its producer's writes arrive. A worker
// that releases its token between work items and then tries to take it
// back with TryAcquire therefore loses it to a queued waiter, which waits
// about one work item instead of until the worker runs out of work.
package par

import (
	"runtime"
	"sync"
)

var (
	mu    sync.Mutex
	width int // configured budget width; 0 means GOMAXPROCS
	held  int // tokens currently taken
	// waiters holds one channel per blocked Acquire, oldest first; a
	// waiter's channel is closed when the token is granted to it.
	waiters []chan struct{}
)

// SetWorkers sizes the budget for tests; the program itself always runs at
// the default, GOMAXPROCS at call time, which n <= 0 restores. It returns
// the previous setting so a test can restore it. Shrinking the budget while
// tokens are taken is safe: releases just stop handing tokens on until the
// count fits.
func SetWorkers(n int) int {
	mu.Lock()
	defer mu.Unlock()
	prev := width
	width = max(n, 0)
	grantLocked()
	return prev
}

// Workers reports the budget width: the most tokens that can be taken at
// once.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return workersLocked()
}

func workersLocked() int {
	if width > 0 {
		return width
	}
	return runtime.GOMAXPROCS(0)
}

// freeLocked reports whether a new caller may take a token now: one is free
// and nobody queued earlier is waiting for it.
func freeLocked() bool {
	return len(waiters) == 0 && held < workersLocked()
}

// Acquire takes one token, blocking until every earlier waiter has been
// served and a token is released to this one, or until cancel is closed (a
// nil cancel never fires). It reports whether it took the token. Every
// token taken must be returned with Release.
func Acquire(cancel <-chan struct{}) bool {
	mu.Lock()
	if freeLocked() {
		held++
		mu.Unlock()
		return true
	}
	ready := make(chan struct{})
	waiters = append(waiters, ready)
	mu.Unlock()

	select {
	case <-ready:
		return true
	case <-cancel:
	}
	mu.Lock()
	defer mu.Unlock()
	for i, w := range waiters {
		if w == ready {
			waiters = append(waiters[:i], waiters[i+1:]...)
			return false
		}
	}
	// No longer queued, so the grant raced the cancel: pass the token on
	// rather than lose it.
	releaseLocked()
	return false
}

// TryAcquire takes one token if that needs no wait, and reports whether it
// did. It fails while any Acquire is waiting, so it never jumps the queue.
func TryAcquire() bool {
	mu.Lock()
	defer mu.Unlock()
	if !freeLocked() {
		return false
	}
	held++
	return true
}

// Release returns one token taken with Acquire or TryAcquire. If an Acquire
// is waiting, the token goes straight to the oldest waiter.
func Release() {
	mu.Lock()
	defer mu.Unlock()
	releaseLocked()
}

func releaseLocked() {
	if held == 0 {
		panic("par: Release without a token")
	}
	held--
	grantLocked()
}

// grantLocked hands free tokens to waiters in arrival order.
func grantLocked() {
	for len(waiters) > 0 && held < workersLocked() {
		close(waiters[0])
		waiters = waiters[1:]
		held++
	}
}
