package sweep

import (
	"runtime"
	"testing"

	"scaledeep/internal/telemetry"
)

// coldCell is the catalogue cell whose host cost TestColdCellAllocBudget
// pins and BenchmarkColdCell times: big enough that compile, Install and
// Run all show (a few thousand instructions per tile, STALL spans past the
// lane's room), small enough to run several times in a test.
var coldCell = Job{Workload: "minivgg", Arch: "baseline", Minibatch: 8, Mode: "train", Iters: 1}

// coldCellEval is the cell BenchmarkColdCellEval times: an evaluation at
// cold-sweep's largest minibatch, where the data window leaves 23 of the
// 24 images' data uncomputed.
var coldCellEval = Job{Workload: "minivgg", Arch: "baseline", Minibatch: 24, Mode: "eval", Iters: 1}

// runColdCell compiles, installs and runs job as an sdserve job's worker
// does: a fresh registry, and a cell lane of a job trace with the default
// per-lane bound, on a machine from the process-wide pool.
func runColdCell(tb testing.TB, job Job) {
	tb.Helper()
	jt := telemetry.NewJobTrace("job", 0, nil)
	if _, err := runJob(job, telemetry.NewRegistry(), jt.Context(0, "cell/"+job.Name())); err != nil {
		tb.Fatal(err)
	}
}

// Bytes and allocations per coldCell run on a reused machine, measured on a
// 2-vCPU VM with go1.24: 5.88 MB and 4,054 allocations. Before the data
// window, per-image regions from one array and layer tags by run, a cell
// took 6.08 MB and 6,094; a compiler that emitted every image anew and a
// simulator that built a string for every STALL note took 9.47 MB and
// 8,862; a simulator that predecoded each program and staged tensor headers
// on the heap, behind an emitter that allocated each op's Args, took
// 23.5 MB and 75,450.
const (
	coldCellBytes  = 5.88e6
	coldCellAllocs = 4054
)

// TestColdCellAllocBudget fails when a cold cell's bytes or allocations
// grow past 1.5x the values above: the compile → Install → Run path is most
// of a cold sdserve job, and its garbage is what the collector pays for.
func TestColdCellAllocBudget(t *testing.T) {
	runColdCell(t, coldCell) // the pool builds the machine once; later cells reuse it
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runColdCell(t, coldCell)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%s: %.0f bytes, %.0f allocations per cell", coldCell.Name(), bytes, allocs)
	if bytes > 1.5*coldCellBytes {
		t.Errorf("%s allocates %.0f bytes per cell, budget %.0f (1.5x %.0f)", coldCell.Name(), bytes, 1.5*coldCellBytes, coldCellBytes)
	}
	if allocs > 1.5*coldCellAllocs {
		t.Errorf("%s makes %.0f allocations per cell, budget %.0f (1.5x %d)", coldCell.Name(), allocs, 1.5*coldCellAllocs, coldCellAllocs)
	}
}

// BenchmarkColdCell times coldCell's compile → Install → Run on a reused
// machine; make bench records it, with -benchmem, in BENCH_cell.json.
func BenchmarkColdCell(b *testing.B) { benchmarkCell(b, coldCell) }

// BenchmarkColdCellEval times coldCellEval the same way; make bench records
// it beside BenchmarkColdCell.
func BenchmarkColdCellEval(b *testing.B) { benchmarkCell(b, coldCellEval) }

func benchmarkCell(b *testing.B, job Job) {
	runColdCell(b, job)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runColdCell(b, job)
	}
}
