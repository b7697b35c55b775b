package sweep

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"scaledeep/internal/telemetry"
)

func TestMapKeepsInputOrder(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 16} {
		widenBudget(t, workers)
		got, err := Map(context.Background(), items, Options{Workers: workers},
			func(_ context.Context, idx int, item int, _ *telemetry.Registry) (string, error) {
				// Unequal work per job so completion order differs from
				// input order under any parallelism.
				s := 0
				for k := 0; k < (64-item)*1000; k++ {
					s += k
				}
				_ = s
				return fmt.Sprintf("r%d", item), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if want := fmt.Sprintf("r%d", i); r != want {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", workers, i, r, want)
			}
		}
	}
}

// TestEightConcurrentJobs pins the sharding claim: with 8 workers and 8
// jobs, all 8 jobs are in flight at once. Every job blocks until the other
// seven have started, so the test deadlocks (and times out) if the pool runs
// any narrower than requested.
func TestEightConcurrentJobs(t *testing.T) {
	const n = 8
	widenBudget(t, n)
	var arrived atomic.Int64
	release := make(chan struct{})
	err := Run(context.Background(), n, Options{Workers: n},
		func(_ context.Context, i int, _ *telemetry.Registry) error {
			if arrived.Add(1) == n {
				close(release)
			}
			<-release
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if arrived.Load() != n {
		t.Fatalf("only %d jobs ran", arrived.Load())
	}
}

func TestFirstErrorCancelsAndIsDeterministic(t *testing.T) {
	widenBudget(t, 8)
	var started atomic.Int64
	err := Run(context.Background(), 100, Options{Workers: 8},
		func(ctx context.Context, i int, _ *telemetry.Registry) error {
			started.Add(1)
			return fmt.Errorf("job %d failed", i)
		})
	if err == nil {
		t.Fatal("expected an error")
	}
	// Job 0 is claimed before any failure can cancel the pool, so the
	// lowest-indexed observed error is always job 0's.
	if got := err.Error(); got != "job 0 failed" {
		t.Fatalf("error = %q, want job 0's", got)
	}
	if started.Load() == 100 {
		t.Fatal("cancellation did not stop the pool early")
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := Run(ctx, 10, Options{Workers: 4},
		func(context.Context, int, *telemetry.Registry) error {
			ran.Add(1)
			return nil
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", ran.Load())
	}
}

func TestZeroJobs(t *testing.T) {
	if err := Run(context.Background(), 0, Options{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgressStrictlyIncreasing(t *testing.T) {
	const n = 50
	widenBudget(t, 8)
	var calls []int
	err := Run(context.Background(), n, Options{
		Workers: 8,
		Progress: func(done, total int) {
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			calls = append(calls, done) // Progress is serialized by contract
		},
	}, func(context.Context, int, *telemetry.Registry) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress call %d reported done=%d", i, d)
		}
	}
}

func TestPerJobRegistriesMergeInOrder(t *testing.T) {
	widenBudget(t, 8)
	merged := telemetry.NewRegistry()
	const n = 24
	err := Run(context.Background(), n, Options{Workers: 8, Metrics: merged},
		func(_ context.Context, i int, reg *telemetry.Registry) error {
			if reg == nil {
				return fmt.Errorf("job %d got no registry", i)
			}
			reg.Counter("jobs").Inc()
			reg.Counter("total").Add(int64(i))
			reg.Gauge("last_index").Set(float64(i))
			reg.Histogram("h", []float64{8, 16}).Observe(float64(i))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Counter("jobs").Value(); got != n {
		t.Fatalf("merged jobs = %d, want %d", got, n)
	}
	if got := merged.Counter("total").Value(); got != n*(n-1)/2 {
		t.Fatalf("merged total = %d, want %d", got, n*(n-1)/2)
	}
	// Gauges merge in job order: the last job's value wins deterministically.
	if got := merged.Gauge("last_index").Value(); got != n-1 {
		t.Fatalf("merged gauge = %v, want %d", got, n-1)
	}
	if got := merged.Histogram("h", []float64{8, 16}).Count(); got != n {
		t.Fatalf("merged histogram count = %d, want %d", got, n)
	}
}

func TestNoRegistriesWithoutMetrics(t *testing.T) {
	err := Run(context.Background(), 4, Options{Workers: 2},
		func(_ context.Context, i int, reg *telemetry.Registry) error {
			if reg != nil {
				return fmt.Errorf("job %d got a registry without opts.Metrics", i)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
