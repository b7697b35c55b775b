package sweep

import (
	"math"
	"testing"

	"scaledeep/internal/sim"
	"scaledeep/internal/telemetry"
)

// coldSweepCells is cold-sweep's grid: every catalogue workload × arch ×
// minibatch 1–24 × eval/train, at one iteration.
func coldSweepCells() Grid {
	g := Grid{Workloads: Workloads(), Archs: Archs(), Modes: []string{"eval", "train"}}
	for mb := 1; mb <= 24; mb++ {
		g.Minibatches = append(g.Minibatches, mb)
	}
	return g
}

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// TestDataWindowRowsMatchInstall runs every cold-sweep cell through runJob,
// whose machine computes only the data the last image's output depends on
// (compiler.InstallLastOutput), and compares each row with the row of the
// same compile installed with Install, which runs every op's datapath, on a
// fresh machine: every field must match, the checksum bit for bit. The
// test runs on one goroutine, so under the race detector, which slows the
// simulator about tenfold, it runs coldSweepGrid's 96 of the 384 cells.
func TestDataWindowRowsMatchInstall(t *testing.T) {
	g := coldSweepCells()
	if raceEnabled {
		g = coldSweepGrid()
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		got, err := runJob(job, nil, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		if want := installedRow(t, job); !sameRow(got, want) {
			t.Errorf("%s: row with the data window\n%+v\nwith Install\n%+v", job.Name(), got, want)
		}
	}
}

// installedRow runs job as runJob does, but installed with Install, on a
// fresh machine.
func installedRow(t *testing.T, job Job) Result {
	t.Helper()
	c, chip, prec := compileJob(t, job, false)
	m := sim.NewMachine(chip, prec, true)
	if err := c.Install(m); err != nil {
		t.Fatal(err)
	}
	if err := LoadCell(c, m); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("%s: %v", job.Name(), err)
	}
	return cellResult(job, st, c.ReadOutput(m, job.Minibatch-1))
}

// sameRow reports whether two rows are equal field by field, their
// checksums bit for bit.
func sameRow(a, b Result) bool {
	ca, cb := math.Float32bits(a.Checksum), math.Float32bits(b.Checksum)
	a.Checksum, b.Checksum = 0, 0
	return a == b && ca == cb
}
