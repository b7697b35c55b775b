package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"scaledeep/internal/server"
	"scaledeep/internal/sweep"
)

// workload is one traffic mix. Its cells are fixed by its definition; the
// seed changes only the order jobs are sent in and, for the open loop, when
// they arrive. A fresh workload measures whole passes over its job list, so
// every seed does the same work.
type workload struct {
	name string
	why  string // one line: why this mix is in the benchmark
	// jobs is one pass over the closed-loop job list in definition order,
	// or the pool of single-cell jobs the open-loop bursts draw from.
	jobs []server.Spec
	// open marks the open-loop workload: bursts on a fixed schedule instead
	// of a client that waits for each job before sending the next.
	open bool
	// fresh runs every pass over the job list against a new daemon with an
	// empty store, so each pass does the same work, and the window ends on a
	// pass boundary.
	fresh bool
	// warm fills the store before the window: sweep.RunGrid over the job's
	// grid, a close and reopen (a daemon restart), then warm-up jobs.
	warm bool
	// predict fits the learned predictor in set-up and hands it to the daemon.
	predict bool
}

const (
	stormBurst = 4                    // identical jobs per burst
	stormGap   = 2 * time.Millisecond // between the jobs of one burst
	trainIters = 2                    // predict-sweep training iterations
)

var modes = []string{"eval", "train"}

// zooSpec is warm-zoo's job: every catalogue workload and arch at small
// minibatches, both modes — 48 cells.
var zooSpec = server.Spec{
	Workloads: sweep.Workloads(), Archs: sweep.Archs(),
	Minibatches: []int{1, 2, 4}, Modes: modes, Format: "csv",
}

// harvestGrid is the predictor's training grid: the zoo at minibatches
// 1, 2 and 4 with two training iterations.
var harvestGrid = sweep.Grid{
	Workloads: sweep.Workloads(), Archs: sweep.Archs(),
	Minibatches: []int{1, 2, 4}, Modes: modes, Iterations: trainIters,
}

var workloads = []*workload{
	{
		name:  "cold-sweep",
		why:   "Every cell is new to an empty store, so compile, simulate and store writes do the work; store hits, single-flight and the predictor are bypassed.",
		jobs:  perMinibatch(mbRange(1, 24)),
		fresh: true,
	},
	{
		name: "warm-zoo",
		why:  "The same 48-cell zoo job against a warm store after a restart: admission, store reads, blob decode, merge and render, with no simulation.",
		jobs: []server.Spec{zooSpec},
		warm: true,
	},
	{
		name: "dup-storm",
		why:  "Open-loop bursts of 4 identical single-cell jobs, one per cell, evenly spaced: queue wait and single-flight coalescing, with store writes and reads mixed.",
		jobs: singleCells(server.Spec{Workloads: sweep.Workloads(), Archs: sweep.Archs(), Minibatches: mbRange(1, 8), Modes: modes}),
		open: true,
	},
	{
		name: "predict-sweep",
		why:  "Single-cell predict jobs, about two thirds inside the predictor's confidence gate, so the fast path runs beside the exact path it falls back to.",
		jobs: singleCells(server.Spec{
			Workloads: sweep.Workloads(), Archs: sweep.Archs(), Minibatches: mbRange(1, 18),
			Modes: modes, Iterations: trainIters, Predict: true,
		}),
		fresh:   true,
		predict: true,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func mbRange(lo, hi int) []int {
	var mbs []int
	for mb := lo; mb <= hi; mb++ {
		mbs = append(mbs, mb)
	}
	return mbs
}

// perMinibatch is cold-sweep's job list: one job per (workload, arch,
// minibatch), each running both modes.
func perMinibatch(mbs []int) []server.Spec {
	var specs []server.Spec
	for _, wl := range sweep.Workloads() {
		for _, ar := range sweep.Archs() {
			for _, mb := range mbs {
				specs = append(specs, server.Spec{
					Workloads: []string{wl}, Archs: []string{ar},
					Minibatches: []int{mb}, Modes: modes, Format: "csv",
				})
			}
		}
	}
	return specs
}

// singleCells splits a grid spec into one single-cell job per cell, in
// sweep order.
func singleCells(sp server.Spec) []server.Spec {
	var specs []server.Spec
	for _, c := range expand(sp) {
		specs = append(specs, server.Spec{
			Workloads: []string{c.Workload}, Archs: []string{c.Arch},
			Minibatches: []int{c.MB}, Modes: []string{c.Mode},
			Iterations: sp.Iterations, Predict: sp.Predict, Format: "csv",
		})
	}
	return specs
}

// cell is one grid point. Iters is the job's normalized Iterations, which
// is also what the result row's iters column shows.
type cell struct {
	Workload, Arch string
	MB             int
	Mode           string
	Iters          int
}

// rowKey is the cell's identity as the leading columns of its CSV row.
func (c cell) rowKey() string {
	return fmt.Sprintf("%s,%s,%d,%s,%d", c.Workload, c.Arch, c.MB, c.Mode, c.Iters)
}

func (c cell) grid() sweep.Grid {
	return sweep.Grid{
		Workloads: []string{c.Workload}, Archs: []string{c.Arch},
		Minibatches: []int{c.MB}, Modes: []string{c.Mode}, Iterations: c.Iters,
	}
}

// iters is the number of training iterations the cell simulates.
func (c cell) iters() int {
	if c.Mode == "train" {
		return c.Iters
	}
	return 1
}

// expand lists a spec's cells in sweep order (workload, arch, minibatch,
// mode).
func expand(sp server.Spec) []cell {
	iters := max(sp.Iterations, 1)
	var cells []cell
	for _, wl := range sp.Workloads {
		for _, ar := range sp.Archs {
			for _, mb := range sp.Minibatches {
				for _, mode := range sp.Modes {
					cells = append(cells, cell{wl, ar, mb, mode, iters})
				}
			}
		}
	}
	return cells
}

// cells lists every distinct cell the workload asks about, in definition
// order.
func (w *workload) cells() []cell {
	seen := map[cell]bool{}
	var cells []cell
	for _, sp := range w.jobs {
		for _, c := range expand(sp) {
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// job is one pre-encoded POST /jobs body.
type job struct {
	body  []byte // the encoded spec; equal bodies must get equal results
	cells []cell
}

func encodeJobs(specs []server.Spec) []*job {
	jobs := make([]*job, len(specs))
	for i, sp := range specs {
		body, err := json.Marshal(sp)
		if err != nil {
			panic(err) // Spec holds only strings and ints
		}
		jobs[i] = &job{body: body, cells: expand(sp)}
	}
	return jobs
}

// passes hands out the closed-loop job order: each pass is a fresh seeded
// permutation of the job list.
type passes struct {
	rng  *rand.Rand
	jobs []*job
}

func newPasses(seed int64, jobs []*job) *passes {
	return &passes{rng: rand.New(rand.NewSource(seed)), jobs: jobs}
}

func (p *passes) next() []*job {
	order := make([]*job, len(p.jobs))
	for i, j := range p.rng.Perm(len(p.jobs)) {
		order[i] = p.jobs[j]
	}
	return order
}

// arrival is one open-loop job and when it is due, as an offset from the
// start of the window.
type arrival struct {
	due time.Duration
	job *job
}

// stormSchedule is dup-storm's arrivals: one burst per cell of the pool, in
// a seeded order, the bursts evenly spaced over the window, each burst
// stormBurst copies of the cell's job stormGap apart. Every seed sends the
// same jobs at the same times and changes only which cell comes when.
// Random arrival times (Poisson, or a random time in each slot) let the
// seed decide how often a burst landed on a slow one and moved the job p50
// by up to 18% between seeds; even spacing leaves a burst waiting only
// behind the previous one's largest cells.
func stormSchedule(seed int64, window time.Duration, pool []*job) []arrival {
	rng := rand.New(rand.NewSource(seed))
	arr := make([]arrival, 0, len(pool)*stormBurst)
	for b, c := range rng.Perm(len(pool)) {
		at := time.Duration(int64(window) * int64(b) / int64(len(pool)))
		for k := 0; k < stormBurst; k++ {
			arr = append(arr, arrival{due: at + time.Duration(k)*stormGap, job: pool[c]})
		}
	}
	return arr
}
