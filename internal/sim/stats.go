package sim

import "fmt"

// AttrBucket classifies where one of a CompHeavy tile's simulated cycles
// went. Every cycle of every tile lands in exactly one bucket, so per-tile
// bucket sums equal Stats.Cycles (see Stats.CheckAttribution).
type AttrBucket int

const (
	// AttrCompute: the scalar PE, the 2D-PE array or an offloaded SFU
	// operation was doing the tile's work.
	AttrCompute AttrBucket = iota
	// AttrDMAWait: a DMA or PASSBUFF transfer was streaming on the tile's
	// behalf (the transfer itself, not queueing for the engine).
	AttrDMAWait
	// AttrTrackNACK: the tile was backing off after a tracker queue-full
	// NACK (§3.2.4's bounded request queues).
	AttrTrackNACK
	// AttrTrackWait: the tile sat in a tracker's wait queue until the
	// range's declared updates arrived or its reads drained.
	AttrTrackWait
	// AttrLinkContend: the operation was admitted but had to wait for a
	// busy shared resource — a DMA engine, link or SFU serving an earlier
	// request — before it could start.
	AttrLinkContend
	// AttrDrain: the tile had halted and was waiting for the rest of the
	// chip to finish (pipeline drain skew).
	AttrDrain
	// AttrIdle: no program, or an unattributed scheduling gap.
	AttrIdle

	NumAttrBuckets
)

var attrBucketNames = [NumAttrBuckets]string{
	"compute", "dma-wait", "tracker-nack", "tracker-wait",
	"link-contention", "drain", "idle",
}

func (b AttrBucket) String() string {
	if b < 0 || b >= NumAttrBuckets {
		return "?"
	}
	return attrBucketNames[b]
}

// CycleAttribution is one tile's full cycle accounting, indexed by
// AttrBucket.
type CycleAttribution [NumAttrBuckets]Cycle

// Total returns the sum over all buckets.
func (a CycleAttribution) Total() Cycle {
	var t Cycle
	for _, c := range a {
		t += c
	}
	return t
}

// Fraction returns bucket b's share of the total (0 when empty).
func (a CycleAttribution) Fraction(b AttrBucket) float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return float64(a[b]) / float64(t)
}

// Plus returns the bucket-wise sum of two attributions.
func (a CycleAttribution) Plus(o CycleAttribution) CycleAttribution {
	for b := range o {
		a[b] += o[b]
	}
	return a
}

// Stats aggregates one simulation run: the measurements behind the paper's
// utilization (Fig. 16/19), power-activity (Fig. 20) and link-bandwidth
// (Fig. 21) results.
type Stats struct {
	Cycles       Cycle
	Instructions int64
	FLOPs        int64
	NACKs        int64
	DMATransfers int64

	// Aggregate link traffic by class.
	CompMemBytes int64
	MemMemBytes  int64
	ExtMemBytes  int64

	// Per-tile activity.
	ArrayBusy  []Cycle            // per CompHeavy tile, cycles the 2D-PE array ran
	Attr       []CycleAttribution // per CompHeavy tile, where every cycle went
	SFUBusy    []Cycle            // per MemHeavy tile
	MemPeak    []int64            // per MemHeavy tile, high-water scratchpad element
	ActiveComp int                // CompHeavy tiles that executed a program
}

// PEUtilization returns mean 2D-PE array busy fraction across tiles that ran
// programs.
func (s Stats) PEUtilization() float64 {
	if s.Cycles == 0 || s.ActiveComp == 0 {
		return 0
	}
	var busy Cycle
	for _, b := range s.ArrayBusy {
		busy += b
	}
	return float64(busy) / (float64(s.Cycles) * float64(s.ActiveComp))
}

// SFUUtilization returns mean SFU busy fraction across all MemHeavy tiles.
func (s Stats) SFUUtilization() float64 {
	if s.Cycles == 0 || len(s.SFUBusy) == 0 {
		return 0
	}
	var busy Cycle
	for _, b := range s.SFUBusy {
		busy += b
	}
	return float64(busy) / (float64(s.Cycles) * float64(len(s.SFUBusy)))
}

// AttrTotal returns the bucket-wise sum of every CompHeavy tile's
// attribution.
func (s Stats) AttrTotal() CycleAttribution {
	var t CycleAttribution
	for _, a := range s.Attr {
		t = t.Plus(a)
	}
	return t
}

// CheckAttribution verifies the accounting invariant: every tile's buckets
// sum exactly to Cycles, so no simulated cycle leaked or was double-counted.
// It holds for any single Run on a fresh Machine.
func (s Stats) CheckAttribution() error {
	if len(s.Attr) == 0 {
		return fmt.Errorf("sim: no cycle attribution recorded")
	}
	for i, a := range s.Attr {
		if got := a.Total(); got != s.Cycles {
			return fmt.Errorf("sim: tile %d attributed %d cycles, run took %d (%+v)",
				i, got, s.Cycles, a)
		}
	}
	return nil
}

// EffectiveFLOPs returns achieved FLOPs per cycle.
func (s Stats) EffectiveFLOPs() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FLOPs) / float64(s.Cycles)
}

func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d instrs=%d flops=%d peUtil=%.3f sfuUtil=%.3f compMem=%dB memMem=%dB ext=%dB nacks=%d",
		s.Cycles, s.Instructions, s.FLOPs, s.PEUtilization(), s.SFUUtilization(),
		s.CompMemBytes, s.MemMemBytes, s.ExtMemBytes, s.NACKs)
}

// collectStats gathers per-tile counters after a run. Every re-aggregated
// field is reset first — Cycles included, since each tile's final time
// persists on the tile and re-deriving the max from a stale carry-over would
// inflate a reused Machine's second run. Instruction, NACK, DMA and
// link-traffic totals are sums of per-tile shadow counters (the hot path
// touches only its own tile).
func (m *Machine) collectStats() {
	s := &m.stats
	s.ArrayBusy = s.ArrayBusy[:0]
	s.Attr = s.Attr[:0]
	s.SFUBusy = s.SFUBusy[:0]
	s.MemPeak = s.MemPeak[:0]
	s.ActiveComp = 0
	s.FLOPs = 0
	s.Cycles = 0
	s.Instructions = 0
	s.NACKs = 0
	s.DMATransfers = 0
	s.CompMemBytes, s.MemMemBytes, s.ExtMemBytes = 0, 0, 0
	for _, ct := range m.comp {
		s.ArrayBusy = append(s.ArrayBusy, ct.arrayCycles)
		s.FLOPs += ct.flops
		s.Instructions += ct.instrs
		s.NACKs += ct.nacks
		s.DMATransfers += ct.dmas
		s.CompMemBytes += ct.linkBytes[linkCompMem]
		s.MemMemBytes += ct.linkBytes[linkMemMem]
		s.ExtMemBytes += ct.linkBytes[linkExt]
		if ct.prog != nil {
			s.ActiveComp++
		}
		if ct.time > s.Cycles {
			s.Cycles = ct.time
		}
	}
	// Attribution closes the books against the final Cycles: a halted tile's
	// remaining cycles are drain, a program-less tile is idle end to end.
	// Computed without mutating tile state so a reused Machine stays
	// consistent.
	for _, ct := range m.comp {
		a := ct.attr
		if ct.prog != nil {
			a[AttrDrain] += s.Cycles - ct.time
		} else {
			a[AttrIdle] += s.Cycles
		}
		s.Attr = append(s.Attr, a)
	}
	for _, mt := range m.mem {
		s.SFUBusy = append(s.SFUBusy, mt.sfuCycles)
		s.MemPeak = append(s.MemPeak, mt.peakAddr)
	}
}
