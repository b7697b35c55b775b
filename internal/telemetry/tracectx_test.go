package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock yields a deterministic, strictly-advancing timeline.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func TestJobTraceLaneOrderIsDeterministic(t *testing.T) {
	jt := NewJobTrace("job-1", 0, nil)
	// Record into lanes out of order, as parallel workers would.
	jt.Context(2, "cell").RecordSpan(Span{Name: "c2"})
	jt.Context(0, "cell").RecordSpan(Span{Name: "c0"})
	jt.Context(LaneJob, "job").RecordSpan(Span{Name: "sweep"})
	jt.Context(1, "cell").RecordSpan(Span{Name: "c1"})
	jt.Context(0, "cell").RecordSpan(Span{Name: "c0b"})

	spans := jt.Assemble()
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	want := []string{"sweep", "c0", "c0b", "c1", "c2"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("assembled order = %v, want %v", names, want)
	}
	if spans[0].Track != "job" || spans[1].Track != "cell" {
		t.Errorf("track prefixes = %q, %q", spans[0].Track, spans[1].Track)
	}
}

func TestJobTraceTrackPrefixJoins(t *testing.T) {
	jt := NewJobTrace("job-1", 0, nil)
	jt.Context(0, "cell0").RecordSpan(Span{Track: "comp[r0,c0,FP]", Name: "conv"})
	spans := jt.Assemble()
	if got := spans[0].Track; got != "cell0/comp[r0,c0,FP]" {
		t.Errorf("track = %q, want cell0/comp[r0,c0,FP]", got)
	}
}

func TestJobTraceConcurrentLanesAssembleIdentically(t *testing.T) {
	// Same per-lane content recorded under different goroutine schedules
	// must assemble to the same byte sequence. The fake clock steps are
	// handed out per lane (not globally) to keep timestamps scheduling-free.
	build := func(workers int) []byte {
		jt := NewJobTrace("job-x", 0, nil)
		const lanes = 8
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for lane := range work {
					tc := jt.Context(lane, fmt.Sprintf("cell%d", lane))
					tc.RecordSpan(Span{Name: "store.get", Start: int64(lane), Dur: 1})
					tc.RecordSpan(Span{Name: "simulate", Start: int64(lane) + 1, Dur: 5})
				}
			}()
		}
		for lane := 0; lane < lanes; lane++ {
			work <- lane
		}
		close(work)
		wg.Wait()
		var buf bytes.Buffer
		if err := WriteChromeTraceMeta(&buf, jt.Assemble(), TraceMeta{Process: jt.JobID()}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := build(1)
	for _, workers := range []int{2, 7} {
		if got := build(workers); !bytes.Equal(got, one) {
			t.Errorf("trace bytes differ between 1 and %d workers:\n%s\nvs\n%s", workers, one, got)
		}
	}
}

func TestJobTracePerLaneBoundCountsDropped(t *testing.T) {
	jt := NewJobTrace("job-1", 2, nil)
	tc := jt.Context(0, "")
	for i := 0; i < 5; i++ {
		tc.RecordSpan(Span{Name: "s"})
	}
	if got := jt.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	if got := len(jt.Assemble()); got != 2 {
		t.Errorf("assembled spans = %d, want 2", got)
	}
	// Another lane still has full capacity.
	jt.Context(1, "").RecordSpan(Span{Name: "other"})
	if got := len(jt.Assemble()); got != 3 {
		t.Errorf("assembled spans after second lane = %d, want 3", got)
	}
}

// TestJobTraceBoundKeepsLifecycleSpans: the per-lane bound applies to op
// spans only. Lifecycle spans end after the op spans have filled the lane
// and must still be assembled, in record order.
func TestJobTraceBoundKeepsLifecycleSpans(t *testing.T) {
	jt := NewJobTrace("job-1", 2, nil)
	tc := jt.Context(0, "cell")
	end := tc.Begin("simulate")
	tc.RecordSpans([]Span{{Name: "op"}, {Name: "op"}, {Name: "op"}})
	end()
	tc.Interval("store.put", time.Now(), time.Now())
	tc.RecordSpan(Span{Name: "op"})
	if got := jt.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	var names []string
	for _, s := range jt.Assemble() {
		names = append(names, s.Name)
	}
	if want := []string{"op", "op", "simulate", "store.put"}; !reflect.DeepEqual(names, want) {
		t.Errorf("assembled spans = %v, want %v", names, want)
	}
}

// TestSpanRoomCountsLifecycleSpans: lifecycle spans already in a lane count
// against its room, and a producer that records only SpanRoom() spans and
// reports the rest through DropSpans leaves the same trace and drop count
// as one that records them all.
func TestSpanRoomCountsLifecycleSpans(t *testing.T) {
	ops := make([]Span, 7)
	for i := range ops {
		ops[i] = Span{Track: "comp", Name: fmt.Sprintf("op%d", i), Start: int64(i)}
	}
	build := func(budgeted bool) *JobTrace {
		jt := NewJobTrace("job-1", 4, newFakeClock(time.Millisecond).Now)
		tc := jt.Context(0, "cell")
		tc.Begin("compile")()
		tc.RecordSpans(ops[:1])
		if budgeted {
			room := tc.SpanRoom()
			if room != 2 {
				t.Fatalf("SpanRoom = %d with 2 of 4 spans held, want 2", room)
			}
			tc.RecordSpans(ops[1 : 1+room])
			tc.DropSpans(int64(len(ops) - 1 - room))
			if got := tc.SpanRoom(); got != 0 {
				t.Errorf("SpanRoom after filling the lane = %d, want 0", got)
			}
		} else {
			tc.RecordSpans(ops[1:])
		}
		tc.Interval("store.put", time.Unix(1_700_000_000, 0), time.Unix(1_700_000_001, 0))
		return jt
	}
	full, budgeted := build(false), build(true)
	if got, want := budgeted.Dropped(), full.Dropped(); got != want || got != 4 {
		t.Errorf("dropped = %d budgeted, %d recorded in full, want 4", got, want)
	}
	if got, want := budgeted.Assemble(), full.Assemble(); !reflect.DeepEqual(got, want) {
		t.Errorf("budgeted trace\n%v\nrecorded in full\n%v", got, want)
	}
}

// TestSpanRoomZero: a lane its lifecycle spans have pushed past the bound,
// a lane its op spans have filled and a disabled context all have no room;
// DropSpans on them only counts.
func TestSpanRoomZero(t *testing.T) {
	jt := NewJobTrace("job-1", 2, nil)
	life := jt.Context(0, "cell")
	for _, name := range []string{"compile", "install", "simulate"} {
		life.Begin(name)()
	}
	ops := jt.Context(1, "cell")
	ops.RecordSpans([]Span{{Name: "op"}, {Name: "op"}})
	for i, tc := range []TraceContext{life, ops, {}} {
		if got := tc.SpanRoom(); got != 0 {
			t.Errorf("context %d: SpanRoom = %d, want 0", i, got)
		}
	}
	life.DropSpans(5)
	ops.DropSpans(3)
	TraceContext{}.DropSpans(1)
	if got := jt.Dropped(); got != 8 {
		t.Errorf("dropped = %d, want 8", got)
	}
	if got := len(jt.Assemble()); got != 5 {
		t.Errorf("assembled spans = %d, want 5", got)
	}
}

func TestTraceContextBeginUsesClock(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	jt := NewJobTrace("job-1", 0, clk.Now) // base consumes one tick
	tc := jt.Context(LaneJob, "job")
	end := tc.Begin("sweep", Attr{Key: "cells", Value: "4"}) // tick 2
	end(Attr{Key: "outcome", Value: "ok"})                   // tick 3
	spans := jt.Assemble()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Start != 1000 || s.Dur != 1000 {
		t.Errorf("span timing = start %d dur %d, want 1000/1000", s.Start, s.Dur)
	}
	if len(s.Attrs) != 2 || s.Attrs[0].Value != "4" || s.Attrs[1].Value != "ok" {
		t.Errorf("attrs = %v", s.Attrs)
	}
}

func TestTraceContextIntervalClampsAtBase(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	jt := NewJobTrace("job-1", 0, clk.Now)
	base := jt.base
	tc := jt.Context(LaneJob, "job")
	tc.Interval("queue.wait", base.Add(-time.Second), base.Add(2*time.Millisecond))
	s := jt.Assemble()[0]
	if s.Start != 0 {
		t.Errorf("start = %d, want clamp to 0", s.Start)
	}
	if s.Dur != 1002000 {
		t.Errorf("dur = %d, want 1002000", s.Dur)
	}
}

func TestZeroTraceContextIsNoOp(t *testing.T) {
	var tc TraceContext
	if tc.Enabled() {
		t.Error("zero TraceContext reports enabled")
	}
	tc.RecordSpan(Span{Name: "x"})
	tc.RecordSpans([]Span{{Name: "y"}})
	tc.Begin("z")()
	tc.Interval("w", time.Now(), time.Now())
	// Surviving to here without a nil deref is the assertion.
}

func TestJobTraceAssembleIsRepeatable(t *testing.T) {
	jt := NewJobTrace("job-1", 0, nil)
	jt.Context(1, "a").RecordSpan(Span{Name: "one"})
	first := jt.Assemble()
	jt.Context(0, "b").RecordSpan(Span{Name: "zero"})
	second := jt.Assemble()
	if len(first) != 1 || len(second) != 2 {
		t.Fatalf("lens = %d, %d", len(first), len(second))
	}
	if second[0].Name != "zero" || second[1].Name != "one" {
		t.Errorf("second assembly order = %v", second)
	}
}

// TestJobTraceLaneHasOnePrefix: a lane keeps the prefix it was created
// with; asking for it again under the same prefix is fine, under another
// one panics.
func TestJobTraceLaneHasOnePrefix(t *testing.T) {
	jt := NewJobTrace("job-1", 0, nil)
	jt.Context(0, "cell/a").RecordSpan(Span{Track: "t", Name: "x"})
	jt.Context(0, "cell/a").RecordSpan(Span{Track: "t", Name: "y"})
	defer func() {
		if recover() == nil {
			t.Error("a second prefix for lane 0 did not panic")
		}
		for _, s := range jt.Assemble() {
			if s.Track != "cell/a/t" {
				t.Errorf("track = %q, want cell/a/t", s.Track)
			}
		}
	}()
	jt.Context(0, "cell/b")
}

// TestJobTraceAssembleJoinsEachTrackOnce pins Assemble's allocations at
// the number of distinct prefixed tracks plus a small constant: every span
// on a track shares one joined string.
func TestJobTraceAssembleJoinsEachTrackOnce(t *testing.T) {
	const lanes, tracks, perTrack = 3, 25, 40
	jt := NewJobTrace("job-1", lanes*tracks*perTrack, nil)
	jt.Context(LaneJob, "job").Begin("sweep")()
	for lane := 0; lane < lanes; lane++ {
		tc := jt.Context(lane, fmt.Sprintf("cell/c%d", lane))
		var batch []Span
		for i := 0; i < perTrack; i++ {
			for tr := 0; tr < tracks; tr++ {
				batch = append(batch, Span{Track: fmt.Sprintf("comp[r0,c%d,FP]", tr), Name: "op", Start: int64(i)})
			}
		}
		tc.RecordSpans(batch)
		tc.Begin("simulate")()
	}
	spans := jt.Assemble()
	distinct := map[string]bool{}
	for _, s := range spans {
		distinct[s.Track] = true
	}
	// Per cell lane: its tile tracks plus the bare prefix of its lifecycle
	// span; the job lane's bare "job".
	if want := lanes*(tracks+1) + 1; len(distinct) != want {
		t.Fatalf("%d distinct tracks, want %d", len(distinct), want)
	}
	allocs := testing.AllocsPerRun(20, func() { jt.Assemble() })
	t.Logf("Assemble: %d spans, %d distinct tracks, %.0f allocs", len(spans), len(distinct), allocs)
	if limit := float64(len(distinct) + 16); allocs > limit {
		t.Errorf("Assemble allocates %.0f times for %d distinct tracks, want at most %.0f", allocs, len(distinct), limit)
	}
}
