package cluster

import (
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/telemetry"
)

// oddWheelNode builds a single-wheel node with an odd chip count so the
// shorter-path routing is unambiguous (no ascending/descending tie).
func oddWheelNode(chips, convW int) *Node {
	cfg := arch.NodeConfig{
		NumClusters: 1,
		Cluster:     arch.ClusterConfig{NumConvChips: chips, ArcGBps: 4, SpokeGBps: 2},
		RingGBps:    8,
		FreqHz:      600e6,
	}
	return NewNode(cfg, convW, 16)
}

// TestMinibatchBoundaryRepeatable is the regression test for the Link.busy
// carry-over bug: with identical traffic, every MinibatchBoundary must cost
// the same cycles. Before the per-collective epoch reset, the second and
// later boundaries returned counts inflated by all prior committed traffic.
func TestMinibatchBoundaryRepeatable(t *testing.T) {
	n := newTestNode(4096, 64)
	tr := telemetry.NewJobTrace("node", 1<<16, nil)
	n.SetSpanSink(tr.Context(0, ""))
	setAll := func() {
		for _, w := range n.Wheels {
			for _, c := range w.Chips {
				for i := range c.Grad {
					c.Grad[i] = 1
				}
			}
		}
	}
	var costs [3]int64
	for it := range costs {
		setAll()
		costs[it] = n.MinibatchBoundary(0.125)
	}
	if costs[0] <= 0 {
		t.Fatalf("boundary consumed no cycles")
	}
	for it, c := range costs {
		if c != costs[0] {
			t.Fatalf("boundary %d cost %d cycles, boundary 0 cost %d — link busy carries over between collectives", it, c, costs[0])
		}
	}
	if n.Cycles != 3*costs[0] {
		t.Fatalf("accrued %d cycles, want 3×%d", n.Cycles, costs[0])
	}
	// Spans stay inside the accrued timeline: with per-collective epochs the
	// per-link offsets restart at each collective, so no span can extend past
	// the node's total cycles.
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace dropped %d spans; raise its bound so every span is checked", d)
	}
	for _, s := range tr.Assemble() {
		if s.Start+s.Dur > n.Cycles {
			t.Fatalf("span %s/%s [%d,+%d) extends past accrued cycles %d", s.Track, s.Name, s.Start, s.Dur, n.Cycles)
		}
	}
}

// TestArcRoutingSymmetry checks that accumulation and broadcast charge the
// arcs actually on the chosen shorter route: on an odd wheel the traffic
// pattern is mirror-symmetric around chip 0, so arc j and arc N-1-j must
// carry identical committed cycles, and the middle arc (on no shortest path)
// must stay idle. The old code charged low-index/forward arcs regardless of
// direction, serializing all broadcasts on arc 0.
func TestArcRoutingSymmetry(t *testing.T) {
	const chips = 5
	check := func(op string, run func(n *Node, w *Wheel)) {
		n := oddWheelNode(chips, 256)
		w := n.Wheels[0]
		for _, c := range w.Chips {
			for i := range c.Grad {
				c.Grad[i] = 1
			}
		}
		run(n, w)
		busy := make([]int64, len(w.arcs))
		for i, a := range w.arcs {
			busy[i] = a.busy
		}
		for i := 0; i < len(busy)/2; i++ {
			j := len(busy) - 1 - i
			if busy[i] != busy[j] {
				t.Fatalf("%s: arc%d busy %d != arc%d busy %d — traffic not split both ways (%v)", op, i, busy[i], j, busy[j], busy)
			}
		}
		// chips/2 = 2: arc 2 sits between chips 2 and 3, both of which route
		// the other way; it must carry nothing.
		if busy[chips/2] != 0 {
			t.Fatalf("%s: middle arc carries %d cycles, want 0 (%v)", op, busy[chips/2], busy)
		}
		if busy[0] == 0 || busy[len(busy)-1] == 0 {
			t.Fatalf("%s: edge arcs idle (%v)", op, busy)
		}
	}
	check("accumulate", func(n *Node, w *Wheel) { n.AccumulateWheel(w) })
	check("distribute", func(n *Node, w *Wheel) { n.DistributeWeights(0.5) })
}

// TestAccumulateFasterThanSerialized: with traffic split both ways, the
// farthest chips' transfers land on disjoint arc sets, so the collective
// finishes in fewer cycles than all transfers serialized on one arc.
func TestAccumulateFasterThanSerialized(t *testing.T) {
	const chips = 5
	n := oddWheelNode(chips, 1024)
	w := n.Wheels[0]
	for _, c := range w.Chips {
		for i := range c.Grad {
			c.Grad[i] = 1
		}
	}
	got := n.AccumulateWheel(w)
	// Total hop-transfers: chips 1,4 take 1 hop, chips 2,3 take 2 → 6.
	per := (&Link{GBps: 4}).transferCycles(1024*4, n.FreqHz)
	if serialized := 6 * per; got >= serialized {
		t.Fatalf("accumulate took %d cycles, not faster than fully serialized %d", got, serialized)
	}
	// The critical path is arc0 (or arc4): 2 transfers back-to-back.
	if want := 2 * per; got != want {
		t.Fatalf("accumulate took %d cycles, want critical path %d", got, want)
	}
}

// TestFCWeightsRemainderConserved is the regression test for NewNode
// dropping fcWeights mod NumClusters: per-wheel FC slices must sum to the
// requested weight count and differ by at most one.
func TestFCWeightsRemainderConserved(t *testing.T) {
	for _, fcW := range []int{1000, 1003, 1, 3, 4, 5, 0} {
		n := newTestNode(16, fcW)
		sum, min, max := 0, int(^uint(0)>>1), 0
		for _, w := range n.Wheels {
			l := len(w.fc.Weights)
			if len(w.fc.Grad) != l {
				t.Fatalf("fcWeights=%d: grad/weight slice mismatch", fcW)
			}
			sum += l
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if sum != fcW {
			t.Fatalf("fcWeights=%d: wheel slices sum to %d", fcW, sum)
		}
		if max-min > 1 {
			t.Fatalf("fcWeights=%d: uneven split %d..%d", fcW, min, max)
		}
	}
}
