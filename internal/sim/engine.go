// Package sim is the ScaleDeep architectural simulator: an instruction-level
// functional + timing model of the chip of §3.2 — CompHeavy tiles executing
// compiled ScaleDeep programs on their scalar PEs and 2D-PE arrays, MemHeavy
// tiles with scratchpads, SFUs, DMA engines and hardware data-flow trackers
// (§3.2.4), connected by point-to-point links with finite bandwidth.
//
// Every instruction runs its timing. On a functional machine scratchpads
// hold real float32 data, and a coarse operation computes it (validated
// against the internal/tensor reference) when its pc lies in its tile's
// data window, the whole program unless SetDataWindow narrows it; a
// timing-only machine carries no data.
// Synchronization is enforced exactly as in the hardware: reads of a tracked
// range block until its declared number of updates arrive; overwrites block
// until its declared reads drain. Deadlocks — the symptom of tracker
// misprogramming — are detected and reported with a dump of blocked tiles.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Cycle is simulation time in clock cycles.
type Cycle int64

// event is one scheduled tile resumption.
type event struct {
	at   Cycle
	tile int // CompHeavy tile index
	seq  int // FIFO tiebreaker for determinism
}

// eventQueue is a hand-rolled binary min-heap ordered by (at, seq). It
// deliberately does not implement container/heap: heap.Push/Pop box every
// event through interface{}, one allocation per scheduled event on the
// simulator's hottest path.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
}

// engine drives the discrete-event simulation: each runnable CompHeavy tile
// executes until it halts, blocks on a tracker, or advances its local clock
// past a long operation; blocked tiles are woken by tracker state changes.
type engine struct {
	queue eventQueue
	seq   int
	now   Cycle
}

func (e *engine) schedule(tile int, at Cycle) {
	e.seq++
	e.queue = append(e.queue, event{at: at, tile: tile, seq: e.seq})
	e.queue.up(len(e.queue) - 1)
}

// peekTime returns the earliest pending event time.
func (e *engine) peekTime() (Cycle, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

func (e *engine) next() (event, bool) {
	if len(e.queue) == 0 {
		return event{}, false
	}
	ev := e.queue[0]
	last := len(e.queue) - 1
	e.queue[0] = e.queue[last]
	e.queue = e.queue[:last]
	e.queue.down(0)
	if ev.at > e.now {
		e.now = ev.at
	}
	return ev, true
}

// reset empties the queue for Machine reuse, keeping its capacity.
func (e *engine) reset() {
	e.queue = e.queue[:0]
	e.seq = 0
	e.now = 0
}

// DeadlockError reports a simulation that stopped making progress with
// unfinished programs — the observable symptom of misprogrammed MEMTRACK
// counts.
type DeadlockError struct {
	Cycle   Cycle
	Blocked []string // description of each blocked tile
}

func (d *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at cycle %d; %d tiles blocked:\n", d.Cycle, len(d.Blocked))
	blocked := append([]string(nil), d.Blocked...)
	sort.Strings(blocked)
	for _, s := range blocked {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}
