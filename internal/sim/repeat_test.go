package sim

import (
	"math"
	"reflect"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
)

// repeatedFill is a two-iteration program whose section, run four times
// per iteration, fills two elements with 1.5 at address 2*copy: the
// section's first LDRI steps by 2 per copy. skip, when set, replaces the
// counter with a branch over the section's first two copies, so the tile
// enters the section in the middle of its stream (and runs one iteration).
func repeatedFill(skip bool) *isa.Program {
	sec := opInstr(isa.MEMSET, 0, isa.PortLeft, 2, int64(math.Float32bits(1.5)))
	ins := []isa.Instr{isa.Ldri(1, 2)}
	if skip {
		ins[0] = isa.Branch(int32(2 * len(sec)))
	}
	ins = append(ins, sec...)
	ins = append(ins, isa.Subri(1, 1, 1), isa.Bgtz(1, int32(-(4*len(sec)+2))), isa.Halt())
	stride := make([]int64, len(sec))
	stride[0] = 2
	return &isa.Program{Tile: "rep", Instrs: ins, Repeat: isa.Repeat{Lo: 1, Len: len(sec), N: 4, Stride: stride}}
}

// TestRepeatedProgramRunsAsExpansion: a tile fetches a repeated section's
// copies from its one stored copy, so a repeated program runs exactly like
// its expansion: the same statistics, the same per-pc profile, the same
// memory, and the same data window over the stream's pcs.
func TestRepeatedProgramRunsAsExpansion(t *testing.T) {
	run := func(p *isa.Program, window [2]int) (Stats, *InstrProfile, []float32) {
		t.Helper()
		m := NewMachine(testChip(), arch.Single, true)
		m.EnableInstrProfile()
		if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
			t.Fatal(err)
		}
		if window != [2]int{} {
			if err := m.SetDataWindow(0, 0, StepFP, window[0], window[1]); err != nil {
				t.Fatal(err)
			}
		}
		st := mustRun(t, m)
		return st, m.InstrProfile(0, 0, StepFP), m.ReadMem(m.MemTileIndex(0, 0), 0, 10)
	}
	f := float32(1.5)
	for _, c := range []struct {
		name   string
		skip   bool
		window [2]int // the stream's pcs [lo, hi), or the whole program
		mem    []float32
	}{
		{"whole", false, [2]int{}, []float32{f, f, f, f, f, f, f, f, 0, 0}},
		{"last copy", false, [2]int{16, 21}, []float32{0, 0, 0, 0, 0, 0, f, f, 0, 0}},
		{"entered mid-stream", true, [2]int{}, []float32{0, 0, 0, 0, f, f, f, f, 0, 0}},
	} {
		p := repeatedFill(c.skip)
		if p.Len() != 24 {
			t.Fatalf("%s: stream of %d instructions, want 24", c.name, p.Len())
		}
		st, prof, mem := run(p, c.window)
		wantSt, wantProf, wantMem := run(p.Expand(), c.window)
		if !reflect.DeepEqual(st, wantSt) {
			t.Errorf("%s: stats %+v, expansion %+v", c.name, st, wantSt)
		}
		if !reflect.DeepEqual(prof, wantProf) || len(prof.Attr) != p.Len() {
			t.Errorf("%s: profile over %d pcs differs from the expansion's over %d", c.name, len(prof.Attr), len(wantProf.Attr))
		}
		if !reflect.DeepEqual(mem, wantMem) || !reflect.DeepEqual(mem, c.mem) {
			t.Errorf("%s: memory %v, expansion %v, want %v", c.name, mem, wantMem, c.mem)
		}
	}
}

// TestDataWindowCountsStreamPcs: a repeated program's data window may end
// anywhere in its stream, past its stored instructions, but not past the
// stream's end.
func TestDataWindowCountsStreamPcs(t *testing.T) {
	m := newTestMachine()
	p := repeatedFill(false)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	n := p.Len()
	if err := m.SetDataWindow(0, 0, StepFP, len(p.Instrs), n); err != nil {
		t.Errorf("SetDataWindow [%d, %d): %v", len(p.Instrs), n, err)
	}
	if err := m.SetDataWindow(0, 0, StepFP, 0, n+1); err == nil {
		t.Errorf("SetDataWindow [0, %d) on a %d-instruction stream: no error", n+1, n)
	}
}
