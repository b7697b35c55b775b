package sim

import (
	"fmt"
	"slices"
	"sort"

	"scaledeep/internal/isa"
)

// memTile models one MemHeavy tile (§3.1.2): a scratchpad holding features,
// weights, errors and gradients; an SFU array executing offloaded
// high-Bytes/FLOP operations; a DMA engine; and hardware data-flow trackers.
type memTile struct {
	index int
	row   int
	mcol  int // MemHeavy column (0..Cols)

	data     []float32 // nil in timing-only mode
	capacity int64     // elements

	trackers    []*tracker // sorted by (addr, size); see findTracker
	trackerPool []*tracker // every tracker allocated, in arming order; see arm
	queueDepth  int

	sfuBusy Cycle
	dmaBusy Cycle

	// activity statistics
	sfuCycles  Cycle
	bytesMoved int64
	peakAddr   int64 // high-water mark of touched addresses
}

func (m *memTile) name() string { return fmt.Sprintf("mem[r%d,c%d]", m.row, m.mcol) }

// findTracker returns the earliest-armed tracker overlapping [addr,
// addr+size), or nil. Compiled code arms at most one tracker per range, and
// arm refuses a negative size and a tracker that overlaps an armed one, so
// the trackers are disjoint: kept sorted by (addr, size), their ends ascend
// too, and the trackers one access overlaps form a contiguous run. A binary
// search finds the first tracker ending past addr; the run continues while
// trackers start before the access ends.
func (m *memTile) findTracker(addr, size int64) *tracker {
	ts := m.trackers
	lo, hi := 0, len(ts)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if t := ts[h]; t.addr+t.size <= addr {
			lo = h + 1
		} else {
			hi = h
		}
	}
	var first *tracker
	for _, t := range ts[lo:] {
		if t.addr >= addr+size {
			break
		}
		if first == nil || t.seq < first.seq {
			first = t
		}
	}
	return first
}

// arm installs a tracker; idempotent for an identical range (re-arming by
// the MEMTRACK instruction after a manifest pre-arm is a no-op).
func (m *memTile) arm(addr, size int64, numUpdates, numReads int, preloaded bool) {
	if size < 0 {
		panic(fmt.Sprintf("sim: %s: tracker [%d+%d) has a negative size", m.name(), addr, size))
	}
	if ex := m.findTracker(addr, size); ex != nil {
		if ex.addr == addr && ex.size == size {
			return
		}
		panic(fmt.Sprintf("sim: %s: tracker [%d+%d) overlaps existing [%d+%d)",
			m.name(), addr, size, ex.addr, ex.size))
	}
	// Trackers armed before the last Reset are reused in arming order, their
	// wait queues keeping capacity: nothing refers to them after Reset.
	n := len(m.trackers)
	if n == len(m.trackerPool) {
		m.trackerPool = append(m.trackerPool, new(tracker))
	}
	t := m.trackerPool[n]
	*t = tracker{addr: addr, size: size, numUpdates: numUpdates, numReads: numReads, seq: n,
		waitReaders: t.waitReaders[:0], waitWriters: t.waitWriters[:0]}
	if preloaded {
		t.updatesSeen = numUpdates
	}
	// Insert after every tracker ordered at or before (addr, size). A
	// compiler arms a tile's ranges in allocation order, ascending, so this
	// is nearly always an append.
	i := len(m.trackers)
	for i > 0 && (m.trackers[i-1].addr > addr || m.trackers[i-1].addr == addr && m.trackers[i-1].size > size) {
		i--
	}
	m.trackers = slices.Insert(m.trackers, i, t)
}

// touch bounds-checks an access and records its high-water mark. The check
// comes first, so peakAddr never exceeds capacity: Reset clears each
// scratchpad only below it.
func (m *memTile) touch(addr, size int64) {
	if addr < 0 || addr+size > m.capacity {
		panic(fmt.Sprintf("sim: %s: access [%d+%d) exceeds capacity %d", m.name(), addr, size, m.capacity))
	}
	if addr+size > m.peakAddr {
		m.peakAddr = addr + size
	}
}

// extMem models a chip's external memory channels: an element-addressed
// store with unbounded capacity and untracked access (the harness pre-loads
// inputs, golden outputs and off-chip weights here). It is sparse: the
// compiler spreads its regions megaelements apart, so only the extents a
// run touches are backed, each zero-filled on first touch.
type extMem struct {
	extents []extent // sorted by base, disjoint, never adjacent
	busy    Cycle
	bytes   int64
}

// extent is one backed range of external memory, [base, base+len(data)).
type extent struct {
	base int64
	data []float32
}

func (x extent) end() int64 { return x.base + int64(len(x.data)) }

// span returns the backing slice of [addr, addr+size), backing whatever part
// of it is not yet backed. An access that reaches or bridges existing
// extents merges them into one, and extending an extent at its end grows
// its capacity geometrically (≥2×), so writing a large tensor element-group
// by element-group costs O(n) amortized. The slice stays valid until the
// next call that backs new memory.
func (e *extMem) span(addr, size int64) []float32 {
	if size <= 0 {
		return nil
	}
	end := addr + size
	// i is the first extent that reaches addr; j is one past the last that
	// starts by end. Extents i..j-1 overlap or abut the access.
	i := sort.Search(len(e.extents), func(k int) bool { return e.extents[k].end() >= addr })
	if i < len(e.extents) {
		if x := e.extents[i]; x.base <= addr && end <= x.end() {
			return x.data[addr-x.base : end-x.base]
		}
	}
	j := i
	for j < len(e.extents) && e.extents[j].base <= end {
		j++
	}
	if i == j {
		e.extents = slices.Insert(e.extents, i, extent{base: addr, data: make([]float32, size)})
		return e.extents[i].data
	}
	first := e.extents[i]
	base := min(addr, first.base)
	n := max(end, e.extents[j-1].end()) - base
	data := first.data
	if base < first.base || n > int64(cap(data)) {
		data = make([]float32, n, max(n, 2*int64(cap(first.data))))
		copy(data[first.base-base:], first.data)
	}
	data = data[:n]
	for _, x := range e.extents[i+1 : j] {
		copy(data[x.base-base:], x.data)
	}
	e.extents[i] = extent{base: base, data: data}
	e.extents = slices.Delete(e.extents, i+1, j)
	return data[addr-base : end-base]
}

// reset zeroes every extent and keeps it backed for the next run.
func (e *extMem) reset() {
	for _, x := range e.extents {
		clear(x.data)
	}
	e.busy, e.bytes = 0, 0
}

// location resolves a (port, issuing tile) pair to a concrete memory.
type location struct {
	mem *memTile // nil → external memory
	ext *extMem
}

func (l location) name() string {
	if l.mem != nil {
		return l.mem.name()
	}
	return "extmem"
}

// resolvePort maps an ABI port value to a location, from the perspective of
// CompHeavy tile ct.
func (m *Machine) resolvePort(ct *compTile, port int64) location {
	if idx, ok := isa.IsAbsTile(port); ok {
		if idx < 0 || idx >= len(m.mem) {
			panic(fmt.Sprintf("sim: absolute tile %d out of range", idx))
		}
		return location{mem: m.mem[idx]}
	}
	switch port {
	case isa.PortLeft:
		return location{mem: m.mem[m.memIndex(ct.row, ct.ccol)]}
	case isa.PortRight:
		return location{mem: m.mem[m.memIndex(ct.row, ct.ccol+1)]}
	case isa.PortExt:
		return location{ext: m.ext}
	default:
		panic(fmt.Sprintf("sim: bad port value %d", port))
	}
}

// access describes one read or write a coarse operation performs against a
// location, for tracker arbitration and traffic accounting. admit fills tk
// with the access's tracker (nil for untracked ranges) when it checks it.
type access struct {
	loc   location
	addr  int64
	size  int64
	write bool
	tk    *tracker
}

// blockedBy reports whether tracker t forbids the access now.
func (a *access) blockedBy(t *tracker) bool {
	if a.write {
		return !t.canWrite()
	}
	return !t.canRead()
}
