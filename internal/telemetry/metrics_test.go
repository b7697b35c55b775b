package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim.nacks")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("sim.nacks") != c {
		t.Fatal("same name+labels did not return the same counter")
	}
	// RaiseTo lifts a counter to a cumulative total and never lowers it.
	c.RaiseTo(9)
	c.RaiseTo(7)
	if got := c.Value(); got != 9 {
		t.Fatalf("counter after RaiseTo(9), RaiseTo(7) = %d, want 9", got)
	}
	g := r.Gauge("sim.cycles")
	g.Set(1234.5)
	if got := g.Value(); got != 1234.5 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestLabeledCountersAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("link.bytes", Label{Key: "link", Value: "comp-mem"})
	b := r.Counter("link.bytes", Label{Key: "link", Value: "mem-mem"})
	if a == b {
		t.Fatal("different labels returned the same counter")
	}
	a.Add(10)
	b.Add(20)
	// Label order must not matter.
	c := r.Counter("multi", Label{Key: "x", Value: "1"}, Label{Key: "y", Value: "2"})
	d := r.Counter("multi", Label{Key: "y", Value: "2"}, Label{Key: "x", Value: "1"})
	if c != d {
		t.Fatal("label order produced distinct counters")
	}
}

// TestInstrumentLookupHitAllocatesNothing pins that resolving an existing
// counter, gauge or histogram with 0, 1 or 2 labels allocates nothing: the
// key is built in a stack buffer and the variadic labels do not escape.
func TestInstrumentLookupHitAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 10}
	x, y := Label{Key: "x", Value: "1"}, Label{Key: "y", Value: "2"}
	lookups := map[string]func(){
		"0 labels": func() {
			r.Counter("c")
			r.Gauge("g")
			r.Histogram("h", bounds)
		},
		"1 label": func() {
			r.Counter("c", x)
			r.Gauge("g", x)
			r.Histogram("h", bounds, x)
		},
		"2 labels": func() {
			r.Counter("c", y, x)
			r.Gauge("g", y, x)
			r.Histogram("h", bounds, y, x)
		},
	}
	for name, lookup := range lookups {
		lookup() // creates the instruments
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", name, n)
		}
	}
}

// TestInstrumentKeepsItsOwnLabels checks that a created instrument copies
// its labels: a caller reusing its label slice cannot rename a series.
func TestInstrumentKeepsItsOwnLabels(t *testing.T) {
	r := NewRegistry()
	labels := []Label{{Key: "link", Value: "comp-mem"}}
	r.Counter("link.bytes", labels...).Add(3)
	labels[0].Value = "mem-mem"
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Labels["link"] != "comp-mem" {
		t.Fatalf("counters after the caller's slice changed: %+v", s.Counters)
	}
	if r.Counter("link.bytes", Label{Key: "link", Value: "comp-mem"}).Value() != 3 {
		t.Fatal("lookup by the original labels missed the series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op.cycles", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5556.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	wantCounts := []int64{2, 1, 1, 2} // ≤1, ≤10, ≤100, +Inf
	if len(hs.Buckets) != len(wantCounts) {
		t.Fatalf("buckets = %v", hs.Buckets)
	}
	for i, want := range wantCounts {
		if hs.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Buckets[i].Count, want, hs.Buckets)
		}
	}
	if hs.Buckets[3].LE != "+Inf" {
		t.Fatalf("overflow bucket LE = %q", hs.Buckets[3].LE)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("flops").Add(42)
	r.Gauge("util", Label{Key: "tile", Value: "comp[r0,c0,FP]"}).Set(0.75)
	r.Histogram("lat", []float64{2, 8}).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 42 {
		t.Fatalf("counters round-trip: %+v", back.Counters)
	}
	if len(back.Gauges) != 1 || back.Gauges[0].Labels["tile"] != "comp[r0,c0,FP]" {
		t.Fatalf("gauges round-trip: %+v", back.Gauges)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Fatalf("histograms round-trip: %+v", back.Histograms)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	raised := r.Counter("raised")
	h := r.Histogram("h", []float64{10, 100})
	g := r.Gauge("g")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				// Every worker raises to values no other worker uses.
				raised.RaiseTo(int64(i*workers + w))
				h.Observe(float64(i % 200))
				g.Set(float64(w))
				// Lookup path must also be safe concurrently.
				r.Counter("c").Value()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if got := raised.Value(); got != workers*per-1 {
		t.Fatalf("raised counter = %d, want the largest value raised to, %d", got, workers*per-1)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

// TestSnapshotHistogramConsistentUnderObserve: a snapshot taken while
// Observe runs must report a count equal to its bucket total, the
// invariant the OpenMetrics exposition requires of a mid-job scrape.
func TestSnapshotHistogramConsistentUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 100})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Observe(float64(i % 200))
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		hs := r.Snapshot().Histograms[0]
		var total int64
		for _, b := range hs.Buckets {
			total += b.Count
		}
		if hs.Count != total {
			t.Fatalf("snapshot %d: count %d != bucket total %d", i, hs.Count, total)
		}
	}
}

func TestMergeFrom(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("jobs").Add(2)
	dst.Counter("bytes", Label{Key: "link", Value: "arc"}).Add(10)
	dst.Gauge("util").Set(0.25)
	dst.Histogram("lat", []float64{1, 10}).Observe(5)

	src := NewRegistry()
	src.Counter("jobs").Add(3)
	src.Counter("bytes", Label{Key: "link", Value: "ring"}).Add(7)
	src.Gauge("util").Set(0.75)
	h := src.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(100)

	if err := dst.MergeFrom(src); err != nil {
		t.Fatal(err)
	}
	if got := dst.Counter("jobs").Value(); got != 5 {
		t.Fatalf("jobs = %d, want 5", got)
	}
	if got := dst.Counter("bytes", Label{Key: "link", Value: "arc"}).Value(); got != 10 {
		t.Fatalf("arc bytes = %d", got)
	}
	if got := dst.Counter("bytes", Label{Key: "link", Value: "ring"}).Value(); got != 7 {
		t.Fatalf("ring bytes = %d", got)
	}
	if got := dst.Gauge("util").Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want last-merged 0.75", got)
	}
	m := dst.Histogram("lat", []float64{1, 10})
	if m.Count() != 3 || m.Sum() != 105.5 {
		t.Fatalf("histogram count=%d sum=%v, want 3/105.5", m.Count(), m.Sum())
	}
	// Self- and nil-merge are no-ops.
	if err := dst.MergeFrom(dst); err != nil {
		t.Fatal(err)
	}
	if err := dst.MergeFrom(nil); err != nil {
		t.Fatal(err)
	}
	if got := dst.Counter("jobs").Value(); got != 5 {
		t.Fatalf("self-merge changed jobs to %d", got)
	}
}

func TestMergeFromBoundsMismatch(t *testing.T) {
	dst := NewRegistry()
	dst.Histogram("lat", []float64{1, 10})
	src := NewRegistry()
	src.Histogram("lat", []float64{1, 20}).Observe(15)
	if err := dst.MergeFrom(src); err == nil {
		t.Fatal("expected bounds-mismatch error")
	}
	src2 := NewRegistry()
	src2.Histogram("lat", []float64{1}).Observe(0.5)
	if err := dst.MergeFrom(src2); err == nil {
		t.Fatal("expected bucket-count-mismatch error")
	}
}

func TestMergeOrderDeterministic(t *testing.T) {
	// Merging the same per-job registries in job order must yield identical
	// snapshots no matter how the jobs themselves completed.
	build := func() []*Registry {
		regs := make([]*Registry, 4)
		for i := range regs {
			r := NewRegistry()
			r.Counter("n").Add(int64(i + 1))
			r.Gauge("last").Set(float64(i))
			regs[i] = r
		}
		return regs
	}
	snap := func(regs []*Registry) string {
		dst := NewRegistry()
		for _, r := range regs {
			if err := dst.MergeFrom(r); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		if err := dst.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := snap(build()), snap(build())
	if a != b {
		t.Fatalf("merge not deterministic:\n%s\nvs\n%s", a, b)
	}
}
