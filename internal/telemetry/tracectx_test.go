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
