package sweep

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"scaledeep/internal/par"
	"scaledeep/internal/sim"
)

// TestZooGridMatchesGolden pins the exact simulator's output on the 48-cell
// zoo grid (every catalogue workload × arch × mb {1,2,4} × eval/train)
// against a table checked in from an earlier commit, so a change to the
// simulator's memory model, reuse or scheduling cannot move any cell. The
// golden file is `sdsweep -workloads simnet,trainnet,minivgg,fcnet -archs
// baseline,half -mb 1,2,4 -modes eval,train -format csv`.
func TestZooGridMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden table was recorded on amd64; the compiler may fuse multiply-adds on %s, which moves checksums", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/zoo48.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Workloads:   Workloads(),
		Archs:       Archs(),
		Minibatches: []int{1, 2, 4},
		Modes:       []string{"eval", "train"},
	}
	results, err := RunGrid(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteCSV(&got, results); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantRows := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotRows := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantRows) != len(gotRows) {
		t.Fatalf("got %d table lines, golden has %d", len(gotRows), len(wantRows))
	}
	header := strings.Split(wantRows[0], ",")
	if gotRows[0] != wantRows[0] {
		t.Fatalf("header %q, golden %q", gotRows[0], wantRows[0])
	}
	for i := 1; i < len(wantRows); i++ {
		w, g := strings.Split(wantRows[i], ","), strings.Split(gotRows[i], ",")
		cell := strings.Join(w[:5], "/")
		for c := range header {
			if c >= len(g) || w[c] != g[c] {
				var gv string
				if c < len(g) {
					gv = g[c]
				}
				t.Errorf("%s: %s = %s, golden %s", cell, header[c], gv, w[c])
			}
		}
	}
}

// TestMachinePoolBounded checks that the pool keeps at most par.Workers()
// idle machines per arch, however many were checked out at once, hands the
// kept ones out again before building more, and counts both.
func TestMachinePoolBounded(t *testing.T) {
	chip, prec, err := ArchFor("baseline")
	if err != nil {
		t.Fatal(err)
	}
	p := machinePool{free: map[string][]*sim.Machine{}}
	n := par.Workers() + 2
	var out []*sim.Machine
	for i := 0; i < n; i++ {
		out = append(out, p.get("baseline", chip, prec))
	}
	for _, m := range out {
		p.put("baseline", m)
	}
	if idle := len(p.free["baseline"]); idle != par.Workers() {
		t.Fatalf("pool keeps %d idle machines after %d puts, want par.Workers() = %d", idle, n, par.Workers())
	}
	for i := 0; i < n; i++ {
		p.put("baseline", p.get("baseline", chip, prec))
	}
	if built, reused := p.built.Load(), p.reused.Load(); built != int64(n) || reused != int64(n) {
		t.Fatalf("built %d, reused %d machines; want %d built, then %d reused", built, reused, n, n)
	}

	// Concurrent checkouts, as from several sweep workers and jobs at once
	// (for the race detector).
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				p.put("baseline", p.get("baseline", chip, prec))
			}
		}()
	}
	wg.Wait()
	if got := p.built.Load() + p.reused.Load(); got != int64(5*n) {
		t.Fatalf("built+reused = %d after %d checkouts", got, 5*n)
	}
	if idle := len(p.free["baseline"]); idle > par.Workers() {
		t.Fatalf("pool grew to %d idle machines, bound %d", idle, par.Workers())
	}
}
