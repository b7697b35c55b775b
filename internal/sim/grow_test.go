package sim

import (
	"testing"

	"scaledeep/internal/isa"
)

// TestExtMemGrowGeometric pins the external-memory growth policy: capacity
// at least doubles per reallocation (amortized O(n) appends) and never
// shrinks below the high-water need.
func TestExtMemGrowGeometric(t *testing.T) {
	var e extMem
	e.grow(0, 1)
	if got := int64(len(e.data)); got < 1024 {
		t.Fatalf("initial growth = %d, want >= 1024 floor", got)
	}
	prev := int64(len(e.data))
	e.grow(prev, 1) // one element past capacity
	if got := int64(len(e.data)); got < 2*prev {
		t.Fatalf("growth past capacity %d -> %d, want >= %d (geometric)", prev, got, 2*prev)
	}
	e.grow(1<<20, 64) // a far jump lands exactly where needed or beyond
	if got := int64(len(e.data)); got < 1<<20+64 {
		t.Fatalf("jump growth = %d, want >= %d", got, 1<<20+64)
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
			e.write(addr, chunk, false)
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
