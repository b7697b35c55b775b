package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// linearFindTracker is the oracle for memTile.findTracker: the scan the
// address index replaced, which walks the armed trackers in arming order
// and returns the first one overlapping [addr, addr+size).
func linearFindTracker(armed []*tracker, addr, size int64) *tracker {
	for _, t := range armed {
		if addr < t.addr+t.size && t.addr < addr+size {
			return t
		}
	}
	return nil
}

// TestFindTrackerMatchesLinearScan arms random disjoint ranges (zero-size
// ones among them, some sharing an address) in random order, re-arms some
// of them idempotently, and checks findTracker against the linear
// first-armed scan for random accesses, accesses spanning two or more armed
// ranges, and accesses in the gaps between them.
func TestFindTrackerMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 100; round++ {
		// Cut [0, 4096) into segments; each becomes an armed range, a gap,
		// or an armed range behind a zero-size tracker at its start.
		type rng64 struct{ addr, size int64 }
		var ranges []rng64
		for a := int64(0); a < 4096; {
			n := 1 + rng.Int63n(64)
			switch rng.Intn(4) {
			case 0: // gap
			case 1:
				ranges = append(ranges, rng64{a, 0})
				if rng.Intn(2) == 0 {
					ranges = append(ranges, rng64{a, 0}) // a second one at the same address
				}
				fallthrough
			default:
				ranges = append(ranges, rng64{a, n})
			}
			a += n
		}
		rng.Shuffle(len(ranges), func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
		m := &memTile{capacity: 4096}
		for _, r := range ranges {
			m.arm(r.addr, r.size, 1, 1, false)
		}
		for i := 0; i < len(ranges)/4; i++ {
			r := ranges[rng.Intn(len(ranges))]
			if r.size == 0 {
				continue // a zero-size range overlaps nothing, so it re-arms as a new tracker
			}
			n, before := len(m.trackers), m.findTracker(r.addr, r.size)
			m.arm(r.addr, r.size, 1, 1, true)
			if len(m.trackers) != n || m.findTracker(r.addr, r.size) != before || before.updatesSeen != 0 {
				t.Fatalf("round %d: re-arming [%d+%d) was not idempotent", round, r.addr, r.size)
			}
		}
		for i := 1; i < len(m.trackers); i++ {
			p, tk := m.trackers[i-1], m.trackers[i]
			if p.addr > tk.addr || p.addr == tk.addr && p.size > tk.size {
				t.Fatalf("round %d: trackers out of order at %d: [%d+%d) before [%d+%d)", round, i, p.addr, p.size, tk.addr, tk.size)
			}
		}
		armed := slices.Clone(m.trackers)
		slices.SortFunc(armed, func(a, b *tracker) int { return a.seq - b.seq })
		check := func(addr, size int64) {
			t.Helper()
			if got, want := m.findTracker(addr, size), linearFindTracker(armed, addr, size); got != want {
				t.Fatalf("round %d: findTracker(%d, %d) = %v, linear scan %v", round, addr, size, got, want)
			}
		}
		for i := 0; i < 300; i++ {
			check(rng.Int63n(4200)-50, rng.Int63n(300))
		}
		for i := 0; i < 100 && len(m.trackers) > 1; i++ {
			// Span from inside one tracker to inside a later one.
			a := rng.Intn(len(m.trackers) - 1)
			b := a + 1 + rng.Intn(len(m.trackers)-a-1)
			ta, tb := m.trackers[a], m.trackers[b]
			start := ta.addr + rng.Int63n(ta.size+1)
			check(start, tb.addr+rng.Int63n(tb.size+1)-start+1)
		}
		for i := int64(0); i < 4096; i += 7 {
			check(i, 0)
			check(i, 1)
		}
	}
}

// TestTrackerStringMatchesFormat checks the strconv appender behind STALL
// notes against the fmt format it replaced.
func TestTrackerStringMatchesFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		tk := &tracker{
			addr: rng.Int63n(1<<40) - 1<<39, size: rng.Int63n(1 << 20),
			numUpdates: rng.Intn(100) - 3, numReads: rng.Intn(100),
			updatesSeen: rng.Intn(100), readsSeen: rng.Intn(100) - 3,
			waitReaders: make([]waiter, rng.Intn(9)), waitWriters: make([]waiter, rng.Intn(9)),
		}
		want := fmt.Sprintf("track[%d+%d] upd %d/%d rd %d/%d (%dR %dW queued)",
			tk.addr, tk.size, tk.updatesSeen, tk.numUpdates, tk.readsSeen, tk.numReads,
			len(tk.waitReaders), len(tk.waitWriters))
		if got := tk.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := string(tk.appendTo([]byte("DMA on "))); got != "DMA on "+want {
			t.Fatalf("appendTo = %q, want %q", got, "DMA on "+want)
		}
	}
}

// TestArmRejectsNegativeSize pins that a tracker range with a negative size,
// which findTracker's address index cannot hold, is a programming error.
func TestArmRejectsNegativeSize(t *testing.T) {
	m := &memTile{capacity: 64}
	defer func() {
		if recover() == nil {
			t.Fatal("arming [8-4) did not panic")
		}
	}()
	m.arm(8, -4, 1, 1, false)
}
