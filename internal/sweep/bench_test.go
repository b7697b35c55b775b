package sweep

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"scaledeep/internal/store"
)

// benchGrid is the fixed 8-job grid the sweep benchmarks run: enough
// independent simulations to keep every core of a 4-core CI runner busy,
// small enough that one serial pass stays under a second.
func benchGrid() Grid {
	return Grid{
		Workloads:   []string{"simnet", "trainnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1, 2},
		Modes:       []string{"eval", "train"},
	}
}

// BenchmarkGridSerial is the one-worker baseline.
func BenchmarkGridSerial(b *testing.B) {
	benchGridWorkers(b, 1)
}

// BenchmarkGridParallel shards the same grid across GOMAXPROCS workers.
func BenchmarkGridParallel(b *testing.B) {
	benchGridWorkers(b, 0)
}

func benchGridWorkers(b *testing.B, workers int) {
	b.Helper()
	g := benchGrid()
	for i := 0; i < b.N; i++ {
		if _, err := RunGrid(context.Background(), g, Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// storeBenchGrid is the persistent-store benchmark grid: distinct cells
// only, so every cold run is pure simulation and every warm run is pure
// cache traffic.
func storeBenchGrid() Grid {
	return Grid{
		Workloads:   []string{"simnet", "fcnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1, 2},
		Modes:       []string{"eval"},
	}
}

func runStoreGrid(b *testing.B, s *store.Store) {
	b.Helper()
	if _, err := RunGrid(context.Background(), storeBenchGrid(), Options{Workers: 1, Store: s}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepStoreCold times the empty-store path: every cell simulates
// and writes its blob (the store's overhead on a miss rides along).
func BenchmarkSweepStoreCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "cold-")
		if err != nil {
			b.Fatal(err)
		}
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runStoreGrid(b, s)
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkSweepStoreWarmDisk times a restarted process replaying from
// disk: a fresh Store per iteration (empty memory tier) on a populated
// directory.
func BenchmarkSweepStoreWarmDisk(b *testing.B) {
	dir := b.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	runStoreGrid(b, s)
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runStoreGrid(b, s)
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkSweepStoreWarmMemory times the long-lived-daemon path: one Store
// reused across runs, every cell served from the in-process memory tier.
func BenchmarkSweepStoreWarmMemory(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	runStoreGrid(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStoreGrid(b, s)
	}
}

// BenchmarkSweepStoreSpeedup runs all three tiers per iteration and reports
// the warm-vs-cold wall-clock ratios — the headline numbers of
// BENCH_store.json.
func BenchmarkSweepStoreSpeedup(b *testing.B) {
	var cold, warmDisk, warmMem time.Duration
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(b.TempDir(), "sp-")
		if err != nil {
			b.Fatal(err)
		}
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		runStoreGrid(b, s)
		cold += time.Since(t0)
		s.Close()

		s, err = store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		runStoreGrid(b, s)
		warmDisk += time.Since(t0)

		t0 = time.Now()
		runStoreGrid(b, s)
		warmMem += time.Since(t0)
		s.Close()
	}
	b.ReportMetric(cold.Seconds()/warmDisk.Seconds(), "disk-speedup-x")
	b.ReportMetric(cold.Seconds()/warmMem.Seconds(), "mem-speedup-x")
	b.ReportMetric(cold.Seconds()*1e3/float64(b.N), "cold-ms")
	b.ReportMetric(warmDisk.Seconds()*1e3/float64(b.N), "warm-disk-ms")
	b.ReportMetric(warmMem.Seconds()*1e3/float64(b.N), "warm-mem-ms")
}

// BenchmarkGridSpeedup measures the same grid serially and sharded in each
// iteration and reports the wall-clock ratio — the headline number of
// BENCH_sweep.json. On a single-core runner the ratio is ~1 by
// construction; the CI gate's 4-core runner is where the ≥2× shows up.
func BenchmarkGridSpeedup(b *testing.B) {
	g := benchGrid()
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := RunGrid(context.Background(), g, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
		serial += time.Since(t0)
		t0 = time.Now()
		if _, err := RunGrid(context.Background(), g, Options{}); err != nil {
			b.Fatal(err)
		}
		parallel += time.Since(t0)
	}
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	b.ReportMetric(serial.Seconds()*1e3/float64(b.N), "serial-ms")
	b.ReportMetric(parallel.Seconds()*1e3/float64(b.N), "parallel-ms")
}
