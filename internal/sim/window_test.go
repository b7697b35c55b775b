package sim

import (
	"math"
	"reflect"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
)

// TestDataWindowGatesOnlyData: an op outside its tile's data window runs
// its timing alone, so every statistic equals a whole-window run's while
// only the ops inside the window move data. A timing-only machine's
// windows stay empty whatever SetDataWindow is asked.
func TestDataWindowGatesOnlyData(t *testing.T) {
	// pcs 0–4 fill [0, 4) with 1.5, pcs 5–9 fill [4, 8) with 2.5, pc 10 halts.
	p := prog("t",
		opInstr(isa.MEMSET, 0, isa.PortLeft, 4, int64(math.Float32bits(1.5))),
		opInstr(isa.MEMSET, 4, isa.PortLeft, 4, int64(math.Float32bits(2.5))))
	run := func(functional bool, lo, hi int) (Stats, []float32) {
		t.Helper()
		m := NewMachine(testChip(), arch.Single, functional)
		if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
			t.Fatal(err)
		}
		if err := m.SetDataWindow(0, 0, StepFP, lo, hi); err != nil {
			t.Fatal(err)
		}
		return mustRun(t, m), m.ReadMem(m.MemTileIndex(0, 0), 0, 8)
	}
	whole, wholeMem := run(true, 0, len(p.Instrs))
	for _, c := range []struct {
		name       string
		functional bool
		lo, hi     int
		mem        []float32
	}{
		{"whole", true, 0, len(p.Instrs), []float32{1.5, 1.5, 1.5, 1.5, 2.5, 2.5, 2.5, 2.5}},
		{"second op", true, 5, len(p.Instrs), []float32{0, 0, 0, 0, 2.5, 2.5, 2.5, 2.5}},
		{"first op", true, 4, 5, []float32{1.5, 1.5, 1.5, 1.5, 0, 0, 0, 0}},
		{"empty", true, 3, 3, make([]float32, 8)},
		{"timing-only", false, 0, len(p.Instrs), make([]float32, 8)},
	} {
		st, mem := run(c.functional, c.lo, c.hi)
		if !reflect.DeepEqual(st, whole) {
			t.Errorf("%s: stats %+v, whole window %+v", c.name, st, whole)
		}
		if !reflect.DeepEqual(mem, c.mem) {
			t.Errorf("%s: memory %v, want %v (whole window %v)", c.name, mem, c.mem, wholeMem)
		}
	}
}

// TestSetDataWindowRefusesOutOfRange: a window must lie inside the tile's
// loaded program, and the tile must exist and hold one.
func TestSetDataWindowRefusesOutOfRange(t *testing.T) {
	m := newTestMachine()
	p := prog("t", opInstr(isa.MEMSET, 0, isa.PortLeft, 4, 0))
	if err := m.SetDataWindow(0, 0, StepFP, 0, 0); err == nil {
		t.Error("SetDataWindow on a tile without a program: no error")
	}
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	n := len(p.Instrs)
	for _, w := range [][2]int{{-1, 2}, {3, 2}, {0, n + 1}, {n + 1, n + 1}} {
		if err := m.SetDataWindow(0, 0, StepFP, w[0], w[1]); err == nil {
			t.Errorf("SetDataWindow [%d, %d) on a %d-instruction program: no error", w[0], w[1], n)
		}
	}
	for _, tile := range [][3]int{{2, 0, 0}, {0, 2, 0}, {-1, 0, 0}, {0, 0, int(stepsPerCell)}} {
		if err := m.SetDataWindow(tile[0], tile[1], Step(tile[2]), 0, 0); err == nil {
			t.Errorf("SetDataWindow on tile %v outside the 2x2 chip: no error", tile)
		}
	}
	for _, w := range [][2]int{{0, n}, {n, n}, {0, 0}, {1, 3}} {
		if err := m.SetDataWindow(0, 0, StepFP, w[0], w[1]); err != nil {
			t.Errorf("SetDataWindow [%d, %d) on a %d-instruction program: %v", w[0], w[1], n, err)
		}
	}
}
