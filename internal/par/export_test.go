package par

// Waiting reports how many Acquire calls are queued, so a test can hold
// back its next step until a waiter is in line.
func Waiting() int {
	mu.Lock()
	defer mu.Unlock()
	return len(waiters)
}
