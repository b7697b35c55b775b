package sim

import (
	"fmt"
	"strconv"
)

// tracker implements one hardware data-flow tracker (§3.2.4): for an address
// range it enforces the compile-time-known access sequence
//
//	NumUpdates writes → NumReads reads → (reset) NumUpdates writes → …
//
// Reads that arrive before NumUpdates writes, and writes that arrive while a
// completed generation's reads have not drained, are queued (the requesting
// tile blocks). The simulator's MemHeavy tile queues at most QueueDepth
// waiters per tracker; beyond that requests are NACKed and retried, exactly
// as the paper describes for a full queue.
type tracker struct {
	addr, size int64 // element range [addr, addr+size)
	numUpdates int
	numReads   int
	seq        int // arming order on its MemHeavy tile (findTracker's tie-break)

	updatesSeen int
	readsSeen   int

	waitReaders []waiter
	waitWriters []waiter
}

// waiter identifies a blocked CompHeavy tile (or DMA on its behalf).
type waiter struct {
	tile int
	desc string
}

// canRead reports whether a read of the range may proceed now.
func (t *tracker) canRead() bool { return t.updatesSeen >= t.numUpdates }

// canWrite reports whether a write may proceed now. Writes of the current
// generation (before updates complete) are always allowed — accumulation is
// commutative, so their order is free. Writes of the next generation must
// wait until this generation's reads drain.
func (t *tracker) canWrite() bool { return t.updatesSeen < t.numUpdates }

// noteWrite records a completed write (one update).
func (t *tracker) noteWrite() {
	t.updatesSeen++
	if t.updatesSeen > t.numUpdates {
		panic(fmt.Sprintf("sim: tracker [%d,%d) over-updated (%d > %d)",
			t.addr, t.addr+t.size, t.updatesSeen, t.numUpdates))
	}
}

// noteRead records a completed read, resetting the tracker when the
// generation's reads drain so the next generation's writes may proceed.
func (t *tracker) noteRead() {
	t.readsSeen++
	if t.readsSeen >= t.numReads {
		t.updatesSeen = 0
		t.readsSeen = 0
	}
}

func (t *tracker) String() string { return string(t.appendTo(nil)) }

// appendTo appends t's description to b:
//
//	track[addr+size] upd seen/updates rd seen/reads (nR nW queued)
func (t *tracker) appendTo(b []byte) []byte {
	b = append(b, "track["...)
	b = strconv.AppendInt(b, t.addr, 10)
	b = append(b, '+')
	b = strconv.AppendInt(b, t.size, 10)
	b = append(b, "] upd "...)
	b = strconv.AppendInt(b, int64(t.updatesSeen), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(t.numUpdates), 10)
	b = append(b, " rd "...)
	b = strconv.AppendInt(b, int64(t.readsSeen), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(t.numReads), 10)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, int64(len(t.waitReaders)), 10)
	b = append(b, "R "...)
	b = strconv.AppendInt(b, int64(len(t.waitWriters)), 10)
	return append(b, "W queued)"...)
}
