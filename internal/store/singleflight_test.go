package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetOrComputeLeaderFollower pins the single-flight contract
// deterministically: a leader blocked mid-compute, a follower that joins the
// flight, and the follower receiving the leader's exact bytes with exactly
// one compute across both.
func TestGetOrComputeLeaderFollower(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "flight")
	payload := []byte(`{"cycles":42}`)

	var computes atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	var leadOut []byte
	var leadOutcome FlightOutcome
	go func() {
		defer wg.Done()
		leadOut, leadOutcome, _ = s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			computes.Add(1)
			close(entered)
			<-release
			if err := s.Put(key, payload); err != nil {
				t.Error(err)
			}
			return payload, nil
		})
	}()
	<-entered // the leader is provably inside compute
	if got := s.Inflight(); got != 1 {
		t.Fatalf("Inflight = %d, want 1", got)
	}

	wg.Add(1)
	var followOut []byte
	var followOutcome FlightOutcome
	go func() {
		defer wg.Done()
		followOut, followOutcome, _ = s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			computes.Add(1)
			return payload, nil
		})
	}()
	// The follower cannot be inside the flight-join select observably, but
	// whatever its interleaving it must never fork a second compute: release
	// the leader and check the invariants after both return.
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	if leadOutcome != FlightComputed {
		t.Fatalf("leader outcome = %v, want FlightComputed", leadOutcome)
	}
	if followOutcome != FlightCoalesced {
		t.Fatalf("follower outcome = %v, want FlightCoalesced", followOutcome)
	}
	if !bytes.Equal(leadOut, payload) || !bytes.Equal(followOut, payload) {
		t.Fatal("leader/follower payloads differ from the computed bytes")
	}
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", st.Coalesced)
	}
	if got := s.Inflight(); got != 0 {
		t.Fatalf("Inflight after completion = %d, want 0", got)
	}
}

// TestGetOrComputeMemRecheck covers the completed-flight window: a caller
// that lost the race entirely (the leader already finished and Put) must
// take the memory-tier bytes and count as coalesced, not recompute.
func TestGetOrComputeMemRecheck(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "landed")
	payload := []byte(`{"cycles":7}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, outcome, err := s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
		t.Fatal("compute ran despite the payload being in the memory tier")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != FlightCoalesced || !bytes.Equal(got, payload) {
		t.Fatalf("outcome=%v payload=%q, want coalesced landed bytes", outcome, got)
	}
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", st.Coalesced)
	}
}

// TestGetOrComputeLeaderErrorNotInherited: a follower that waited out a
// failed flight must retry on its own behalf — one job's fault cannot fail
// another job's cell.
func TestGetOrComputeLeaderErrorNotInherited(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "fail")
	payload := []byte(`{"ok":true}`)

	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			close(entered)
			<-release
			return nil, errors.New("leader cancelled")
		})
		if err == nil {
			t.Error("leader: want its own error back")
		}
	}()
	<-entered

	wg.Add(1)
	go func() {
		defer wg.Done()
		got, outcome, err := s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			return payload, nil
		})
		if err != nil {
			t.Errorf("follower inherited an error: %v", err)
		}
		if outcome != FlightComputed || !bytes.Equal(got, payload) {
			t.Errorf("follower outcome=%v payload=%q, want its own computed bytes", outcome, got)
		}
	}()
	close(release)
	wg.Wait()
}

// TestGetOrComputeInvalidKey: an unkeyable cell coalesces with nothing —
// compute just runs.
func TestGetOrComputeInvalidKey(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	_, outcome, err := s.GetOrCompute(context.Background(), "not-a-key", func() ([]byte, error) {
		ran = true
		return []byte("x"), nil
	})
	if err != nil || !ran || outcome != FlightComputed {
		t.Fatalf("ran=%v outcome=%v err=%v, want a plain compute", ran, outcome, err)
	}
	if st := s.Stats(); st.Coalesced != 0 {
		t.Fatalf("Coalesced = %d, want 0", st.Coalesced)
	}
}

// TestGetOrComputeContextCancel: a follower's wait is cancellable even while
// the leader is stuck.
func TestGetOrComputeContextCancel(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "stuck")
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			close(entered)
			<-release
			return []byte("late"), nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = s.GetOrCompute(ctx, key, func() ([]byte, error) {
		t.Fatal("cancelled follower must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

// TestStoreConcurrentStress hammers one shared store from many goroutines
// mixing Get, Put and GetOrCompute over a small hot key space — the
// concurrent-reader/writer audit for the store mutex, the LRU table and its
// eviction, run under `go test -race` by make race. The size bound is set
// low enough that eviction churns continuously while flights are in
// progress.
func TestStoreConcurrentStress(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 16
		iters      = 200
		hotKeys    = 7
	)
	keys := make([]string, hotKeys)
	payloads := make([][]byte, hotKeys)
	for i := range keys {
		keys[i] = testKey(t, "stress", fmt.Sprint(i))
		payloads[i] = []byte(fmt.Sprintf(`{"cell":%d,"pad":%q}`, i, make([]byte, 512)))
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % hotKeys
				switch i % 3 {
				case 0:
					if payload, ok, err := s.Get(keys[k]); err != nil {
						t.Error(err)
					} else if ok && !bytes.Equal(payload, payloads[k]) {
						t.Errorf("key %d: wrong payload", k)
					}
				case 1:
					if err := s.Put(keys[k], payloads[k]); err != nil {
						t.Error(err)
					}
				case 2:
					payload, _, err := s.GetOrCompute(ctx, keys[k], func() ([]byte, error) {
						return payloads[k], s.Put(keys[k], payloads[k])
					})
					if err != nil {
						t.Error(err)
					} else if !bytes.Equal(payload, payloads[k]) {
						t.Errorf("key %d: wrong flight payload", k)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Inflight(); got != 0 {
		t.Fatalf("Inflight after stress = %d, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
