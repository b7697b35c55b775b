package sim

import (
	"testing"

	"scaledeep/internal/isa"
)

// TestExtMemGrowGeometric pins the external-memory backing policy:
// extending an extent at its end at least doubles its capacity (amortized
// O(n) appends), and a far jump backs only what it touches.
func TestExtMemGrowGeometric(t *testing.T) {
	var e extMem
	e.span(0, 1024)
	prev := cap(e.extents[0].data)
	e.span(1024, 1) // one element past capacity, at the end
	if got := cap(e.extents[0].data); got < 2*prev {
		t.Fatalf("growth past capacity %d -> %d, want >= %d (geometric)", prev, got, 2*prev)
	}
	if len(e.extents) != 1 || len(e.extents[0].data) != 1025 {
		t.Fatalf("extending at the end left %d extents, first of %d elements; want 1 of 1025",
			len(e.extents), len(e.extents[0].data))
	}

	const far = 8 << 20 // the compiler's per-image output area
	copy(e.span(far, 3), []float32{1, 2, 3})
	if len(e.extents) != 2 {
		t.Fatalf("far write left %d extents, want 2", len(e.extents))
	}
	if x := e.extents[1]; x.base != far || len(x.data) != 3 || cap(x.data) != 3 {
		t.Fatalf("far write backed [%d+%d) cap %d, want exactly [%d+3)", x.base, len(x.data), cap(x.data), far)
	}
	if got := e.span(far, 3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("far write reads back %v", got)
	}
	for i, v := range e.span(far/2, 64) {
		if v != 0 {
			t.Fatalf("untouched gap element %d reads %v, want 0", far/2+i, v)
		}
	}
	backed := 0
	for _, x := range e.extents {
		backed += len(x.data)
	}
	if backed != 1025+3+64 {
		t.Fatalf("backed %d elements, want %d (only what was touched)", backed, 1025+3+64)
	}
}

// TestExtMemMergesBridgedExtents checks that an access reaching or bridging
// extents merges them into one that keeps every element's value, and that
// reset zeroes the extents but keeps them backed.
func TestExtMemMergesBridgedExtents(t *testing.T) {
	var e extMem
	copy(e.span(100, 4), []float32{1, 2, 3, 4})      // [100,104)
	copy(e.span(200, 4), []float32{5, 6, 7, 8})      // [200,204)
	copy(e.span(300, 2), []float32{9, 10})           // [300,302)
	copy(e.span(90, 10), []float32{11, 12})          // [90,100) abuts the first
	copy(e.span(102, 100), []float32{0: 13, 99: 14}) // bridges [90,104) and [200,204)
	if len(e.extents) != 2 {
		t.Fatalf("got %d extents, want 2", len(e.extents))
	}
	if x := e.extents[0]; x.base != 90 || x.end() != 204 {
		t.Fatalf("merged extent [%d,%d), want [90,204)", x.base, x.end())
	}
	want := map[int64]float32{90: 11, 91: 12, 100: 1, 101: 2, 102: 13, 103: 0, 150: 0, 201: 14, 202: 7, 203: 8, 300: 9, 301: 10}
	for addr, v := range want {
		if got := e.span(addr, 1)[0]; got != v {
			t.Errorf("element %d = %v, want %v", addr, got, v)
		}
	}
	if len(e.extents) != 2 {
		t.Fatalf("reads inside extents added extents: %d", len(e.extents))
	}
	e.reset()
	if len(e.extents) != 2 {
		t.Fatalf("reset dropped extents: %d left", len(e.extents))
	}
	for _, x := range e.extents {
		for i, v := range x.data {
			if v != 0 {
				t.Fatalf("element %d = %v after reset", x.base+int64(i), v)
			}
		}
	}
}

// BenchmarkExtMemGrow is the regression benchmark behind the policy: an
// element-group-at-a-time fill of a 1M-element tensor must stay O(n)
// amortized. Under the old fixed-pad policy this loop was quadratic.
func BenchmarkExtMemGrow(b *testing.B) {
	chunk := make([]float32, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e extMem
		for addr := int64(0); addr < 1<<20; addr += 64 {
			copy(e.span(addr, 64), chunk)
		}
	}
}

// TestRunAllocBudget bounds the steady-state allocation cost of a run on a
// reused machine: Reset + reload + Run must stay within a small fixed
// budget (the seed inner loop allocated per instruction and per DMA; the
// scratch-arena rewrite's budget covers only per-run bookkeeping).
func TestRunAllocBudget(t *testing.T) {
	m := newTestMachine()
	p := prog("t",
		opInstr(isa.MEMSET, 0, int64(isa.PortLeft), 16, 0),
		opInstr(isa.DMASTORE, 0, int64(isa.PortLeft), 0, int64(isa.PortRight), 16, 0),
		opInstr(isa.DMASTORE, 0, int64(isa.PortRight), 64, int64(isa.PortLeft), 16, 0),
	)
	cycle := func() {
		m.Reset()
		if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm: grow the arena, event queue and stats slices once
	if avg := testing.AllocsPerRun(50, cycle); avg > 40 {
		t.Fatalf("Reset+LoadProgram+Run allocates %.1f objects/run, budget 40", avg)
	}
}
