package main

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"scaledeep/internal/compiler"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

func bodies(jobs []*job) []string {
	var s []string
	for _, j := range jobs {
		s = append(s, string(j.body))
	}
	return s
}

// TestPassesSeeded: the same seed gives the same job order, another seed
// another order, and every pass holds every job exactly once.
func TestPassesSeeded(t *testing.T) {
	for _, w := range workloads {
		if w.open {
			continue
		}
		jobs := encodeJobs(w.jobs)
		a, b, c := newPasses(1, jobs), newPasses(1, jobs), newPasses(2, jobs)
		for pass := 0; pass < 2; pass++ {
			pa, pb, pc := bodies(a.next()), bodies(b.next()), bodies(c.next())
			if !reflect.DeepEqual(pa, pb) {
				t.Errorf("%s pass %d: seed 1 gave two different orders", w.name, pass)
			}
			if len(jobs) > 1 && reflect.DeepEqual(pa, pc) {
				t.Errorf("%s pass %d: seeds 1 and 2 gave the same order", w.name, pass)
			}
			want := bodies(jobs)
			sort.Strings(want)
			sort.Strings(pc)
			if !reflect.DeepEqual(pc, want) {
				t.Errorf("%s pass %d: pass is not a permutation of the job list", w.name, pass)
			}
		}
	}
}

// TestStormScheduleSeeded: the same seed gives the same arrivals; another
// seed sends the same cells at the same times in another order. Every cell
// of the pool gets exactly one burst, and the bursts are evenly spaced over
// the window.
func TestStormScheduleSeeded(t *testing.T) {
	w, err := lookup("dup-storm")
	if err != nil {
		t.Fatal(err)
	}
	pool := encodeJobs(w.jobs)
	window := defaultConfig().window
	a, b, c := stormSchedule(1, window, pool), stormSchedule(1, window, pool), stormSchedule(2, window, pool)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same schedule")
	}
	if len(a) != len(pool)*stormBurst || len(c) != len(a) {
		t.Fatalf("%d and %d arrivals, want %d", len(a), len(c), len(pool)*stormBurst)
	}
	spacing := window / time.Duration(len(pool))
	cellSet := func(arr []arrival) map[string]int {
		m := map[string]int{}
		for i, x := range arr {
			burst, k := i/stormBurst, i%stormBurst
			if want := time.Duration(int64(window)*int64(burst)/int64(len(pool))) + time.Duration(k)*stormGap; x.due != want {
				t.Fatalf("arrival %d due at %v, want %v", i, x.due, want)
			}
			if k > 0 && x.job != arr[i-1].job {
				t.Fatalf("arrival %d: a burst mixes cells", i)
			}
			m[string(x.job.body)]++
		}
		return m
	}
	if spacing <= stormBurst*stormGap {
		t.Errorf("bursts %v apart overlap their own %d jobs", spacing, stormBurst)
	}
	if ca, cc := cellSet(a), cellSet(c); !reflect.DeepEqual(ca, cc) {
		t.Error("seeds 1 and 2 drew different cells")
	}
	for body, n := range cellSet(a) {
		if n != stormBurst {
			t.Errorf("cell %s sent %d times, want %d (one burst)", body, n, stormBurst)
		}
	}
}

// TestCatalogueCompiles compiles every cell of every workload. A cell the
// compiler rejects or panics on would fail or kill the daemon mid-run
// (minivgg/half/train panics the compiler's allocator at minibatch 42 and
// above, which is why every workload stays at minibatch 32 or below).
func TestCatalogueCompiles(t *testing.T) {
	seen := map[cell]bool{}
	var cells []cell
	for _, w := range workloads {
		for _, c := range w.cells() {
			c.Iters = c.iters()
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
	}
	errs, err := sweep.Map(context.Background(), cells, sweep.Options{}, func(_ context.Context, _ int, c cell, _ *telemetry.Registry) (error, error) {
		net, chip, _, err := cellArch(c)
		if err == nil {
			_, err = compiler.Compile(net, chip, compiler.Options{
				Minibatch: c.MB, Iterations: c.iters(), Training: c.Mode == "train", LR: 0.0625,
			})
		}
		return err, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", cells[i].rowKey(), err)
		}
	}
}

func TestJobsMatchCells(t *testing.T) {
	want := map[string]int{"cold-sweep": 384, "warm-zoo": 48, "dup-storm": 128, "predict-sweep": 288}
	for _, w := range workloads {
		if got := len(w.cells()); got != want[w.name] {
			t.Errorf("%s: %d distinct cells, want %d", w.name, got, want[w.name])
		}
		for _, c := range w.cells() {
			if c.MB > 32 {
				t.Errorf("%s: cell %s above minibatch 32", w.name, c.rowKey())
			}
		}
		for _, j := range encodeJobs(w.jobs) {
			if !bytes.Contains(j.body, []byte(`"format":"csv"`)) {
				t.Errorf("%s: job %s does not ask for CSV", w.name, j.body)
			}
		}
	}
}
