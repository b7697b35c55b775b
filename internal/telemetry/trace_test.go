package telemetry

import (
	"sync"
	"testing"
)

// These tests drive a JobTrace the way the CLIs do: a whole run recorded
// into one lane under a fixed bound.

func span(track string, start int64) Span {
	return Span{Track: track, Name: "op", Start: start, Dur: 1}
}

func TestTraceKeepsAllUnderCapacity(t *testing.T) {
	tr := NewJobTrace("run", 4, nil)
	lane := tr.Context(0, "")
	for i := int64(0); i < 3; i++ {
		lane.RecordSpan(span("t", i))
	}
	got := tr.Assemble()
	if len(got) != 3 || tr.Dropped() != 0 {
		t.Fatalf("spans = %d dropped = %d", len(got), tr.Dropped())
	}
	for i, s := range got {
		if s.Start != int64(i) {
			t.Fatalf("out of order: %+v", got)
		}
	}
}

// TestTraceKeepsLeadingSpans: a full lane keeps the spans it was handed
// first and counts the rest as dropped, whether they arrive one at a time
// or in a batch that straddles the bound.
func TestTraceKeepsLeadingSpans(t *testing.T) {
	for _, batched := range []bool{false, true} {
		tr := NewJobTrace("run", 4, nil)
		lane := tr.Context(0, "")
		var spans []Span
		for i := int64(0); i < 10; i++ {
			spans = append(spans, span("t", i))
		}
		if batched {
			lane.RecordSpans(spans[:3])
			lane.RecordSpans(spans[3:])
		} else {
			for _, s := range spans {
				lane.RecordSpan(s)
			}
		}
		got := tr.Assemble()
		if len(got) != 4 {
			t.Fatalf("batched=%v: kept %d spans, want 4", batched, len(got))
		}
		if tr.Dropped() != 6 {
			t.Fatalf("batched=%v: dropped = %d, want 6", batched, tr.Dropped())
		}
		for i, s := range got {
			if s.Start != int64(i) {
				t.Fatalf("batched=%v: expected leading window [0,4): %+v", batched, got)
			}
		}
	}
}

func TestTraceDefaultCapacity(t *testing.T) {
	tr := NewJobTrace("run", 0, nil)
	lane := tr.Context(0, "")
	for i := int64(0); i <= defaultPerLaneSpans; i++ {
		lane.RecordSpan(span("t", i))
	}
	if got := len(tr.Assemble()); got != defaultPerLaneSpans || tr.Dropped() != 1 {
		t.Fatalf("kept %d dropped %d, want %d and 1", got, tr.Dropped(), defaultPerLaneSpans)
	}
}

func TestTraceConcurrentRecord(t *testing.T) {
	const workers, per, limit = 8, 500, 128
	tr := NewJobTrace("run", limit, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lane := tr.Context(w%2, "")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				lane.RecordSpan(span("t", i))
			}
		}()
	}
	wg.Wait()
	kept := len(tr.Assemble())
	if kept != 2*limit {
		t.Fatalf("kept %d spans, want %d (two full lanes)", kept, 2*limit)
	}
	if got := kept + int(tr.Dropped()); got != workers*per {
		t.Fatalf("kept+dropped = %d, want %d", got, workers*per)
	}
}
