package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// Job-scoped distributed tracing, and the package's one span recorder. A
// JobTrace collects every span one job produces — across the HTTP handler,
// the sweep engine's parallel workers, store lookups and simulator runs —
// and assembles them into one coherent Perfetto-loadable trace. The CLIs
// record a whole run into a single lane of one.
//
// The central design problem is determinism: sweep workers finish in
// arbitrary order, so appending spans to one shared buffer would interleave
// them nondeterministically. A JobTrace instead partitions spans into
// lanes. A lane is a deterministic producer slot — the job index for each
// of the sweep's grid cells, LaneJob for job-lifecycle spans — and
// every lane is only ever written by the one goroutine that owns its unit
// of work. Assemble concatenates lanes in lane order, each lane's spans in
// its own record order, so the assembled span list is a pure function of
// the job spec and the measured durations: the same job assembled at any
// -parallel worker count yields the same spans in the same order.
// (Timestamps are data — wall-clock offsets from the job base — so
// byte-identical traces additionally require a deterministic clock, which
// the tests pin with a fixed `now`.)
//
// Lanes are bounded: a lane keeps its first perLane recorded spans
// (RecordSpan/RecordSpans) and counts the rest in a dropped counter that
// Assemble's callers surface, so a truncated trace is detectable instead
// of silently misleading (see MarshalChromeTraceMeta /
// trace.dropped_spans). Lifecycle spans (Begin/Interval) are a fixed
// handful per cell and always kept, even in a lane the op spans have
// filled. The simulator asks a lane for its SpanRoom before a run and
// reports the spans past it through DropSpans instead of building spans
// the bound would drop.

// LaneJob is the reserved lane for job-lifecycle spans (queue-wait, sweep,
// render, merge); it sorts before every cell lane.
const LaneJob = -1

// defaultPerLaneSpans bounds one lane of an unconfigured JobTrace: enough
// for a cell's coarse spans plus a short simulator span prefix.
const defaultPerLaneSpans = 4096

// JobTrace assembles one job's spans from concurrent lane producers.
type JobTrace struct {
	jobID string
	now   func() time.Time
	base  time.Time
	limit int

	mu      sync.Mutex
	lanes   map[int]*traceLane
	order   []int // lane creation order, kept sorted at assembly
	dropped int64
}

// traceLane is one lane's spans and the track prefix Assemble joins to
// them.
type traceLane struct {
	prefix string
	spans  []Span
}

// NewJobTrace builds a collector for one job. perLane bounds each lane's
// span count (<= 0 selects a default); now supplies wall-clock time and may
// be nil for time.Now — tests pass a fixed clock to make assembled traces
// byte-identical across runs. The base timestamp (span time zero) is taken
// at creation.
func NewJobTrace(jobID string, perLane int, now func() time.Time) *JobTrace {
	if perLane <= 0 {
		perLane = defaultPerLaneSpans
	}
	if now == nil {
		now = time.Now
	}
	return &JobTrace{
		jobID: jobID,
		now:   now,
		base:  now(),
		limit: perLane,
		lanes: map[int]*traceLane{},
	}
}

// JobID returns the job identifier stamped into the assembled trace.
func (jt *JobTrace) JobID() string { return jt.jobID }

// Context returns the trace context for one lane, creating the lane on
// first use. prefix is prepended (with "/") to every span recorded in the
// lane, so a cell's simulator spans land on "cell/<name>/<tile>" tracks. A
// lane has one prefix: asking for it again under another panics.
func (jt *JobTrace) Context(lane int, prefix string) TraceContext {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	l := jt.lanes[lane]
	if l == nil {
		l = &traceLane{prefix: prefix}
		jt.lanes[lane] = l
		jt.order = append(jt.order, lane)
	} else if l.prefix != prefix {
		panic(fmt.Sprintf("telemetry: lane %d has track prefix %q, not %q", lane, l.prefix, prefix))
	}
	return TraceContext{jt: jt, lane: l}
}

// joinTrack prepends a track prefix ("" leaves the track unchanged).
func joinTrack(prefix, track string) string {
	if prefix == "" {
		return track
	}
	if track == "" {
		return prefix
	}
	return prefix + "/" + track
}

// record appends spans to a lane; bounded spans are dropped once the lane
// holds perLane spans. The lane's track prefix is joined at assembly time,
// so the hot path (simulator span batches) never builds track strings.
func (jt *JobTrace) record(l *traceLane, bounded bool, spans ...Span) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	buf := l.spans
	// Grow once, exactly: the simulator flushes spans in large batches, so
	// doubling-growth would allocate several times per flush.
	if need := len(buf) + len(spans); need > cap(buf) {
		if bounded && need > jt.limit {
			need = jt.limit
		}
		if need > cap(buf) {
			nb := make([]Span, len(buf), need)
			copy(nb, buf)
			buf = nb
		}
	}
	for _, s := range spans {
		if bounded && len(buf) >= jt.limit {
			jt.dropped++
			continue
		}
		buf = append(buf, s)
	}
	l.spans = buf
}

// room reports how many more bounded spans lane keeps before it drops:
// lifecycle spans count against the bound but are never dropped, so a lane
// they pushed past it has no room.
func (jt *JobTrace) room(l *traceLane) int {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return max(jt.limit-len(l.spans), 0)
}

// drop counts n spans discarded by a lane's bound without recording them.
func (jt *JobTrace) drop(n int64) {
	jt.mu.Lock()
	jt.dropped += n
	jt.mu.Unlock()
}

// Dropped reports how many spans were discarded by per-lane bounds.
func (jt *JobTrace) Dropped() int64 {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.dropped
}

// sinceBase returns the current offset from the job base in microseconds.
func (jt *JobTrace) sinceBase() int64 { return jt.now().Sub(jt.base).Microseconds() }

// Assemble returns the job's spans: lanes ascending (LaneJob first), each
// lane in record order, every track joined to its lane's prefix. Each lane
// is owned by a single goroutine, so the result is deterministic regardless
// of how lanes were scheduled. Each distinct prefix/track pair is joined
// once, and its spans share the string. The JobTrace remains usable after
// Assemble (late spans land in later assemblies).
func (jt *JobTrace) Assemble() []Span {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	// Insertion sort: the lane count is small and mostly pre-sorted.
	for i := 1; i < len(jt.order); i++ {
		for j := i; j > 0 && jt.order[j] < jt.order[j-1]; j-- {
			jt.order[j], jt.order[j-1] = jt.order[j-1], jt.order[j]
		}
	}
	var n int
	for _, l := range jt.lanes {
		n += len(l.spans)
	}
	out := make([]Span, 0, n)
	type prefixed struct{ prefix, track string }
	joined := map[prefixed]string{}
	for _, lane := range jt.order {
		l := jt.lanes[lane]
		for _, s := range l.spans {
			if l.prefix != "" {
				k := prefixed{l.prefix, s.Track}
				t, ok := joined[k]
				if !ok {
					t = joinTrack(l.prefix, s.Track)
					joined[k] = t
				}
				s.Track = t
			}
			out = append(out, s)
		}
	}
	return out
}

// TraceContext addresses one lane of a JobTrace. It is a value type — copy
// it freely into worker goroutines; all mutation happens on the shared
// JobTrace under its lock. The zero TraceContext is disabled: every method
// is a cheap no-op, so producers can hold one unconditionally.
type TraceContext struct {
	jt   *JobTrace
	lane *traceLane
}

// Enabled reports whether spans recorded through this context go anywhere.
func (tc TraceContext) Enabled() bool { return tc.jt != nil }

// RecordSpan records one span into the context's lane; the track is
// prefixed with the lane prefix. Implements SpanSink, so the compiler, the
// reference executor and the cluster model can record into a lane.
func (tc TraceContext) RecordSpan(s Span) {
	if tc.jt == nil {
		return
	}
	tc.jt.record(tc.lane, true, s)
}

// RecordSpans records a batch under one lock: the simulator's flush at
// the end of each Run.
func (tc TraceContext) RecordSpans(spans []Span) {
	if tc.jt == nil {
		return
	}
	tc.jt.record(tc.lane, true, spans...)
}

// SpanRoom reports how many more spans RecordSpan/RecordSpans keep in the
// lane before the per-lane bound drops them; 0 when the context is
// disabled. A producer reads it once before a stretch of emission that
// nothing else records into the lane during (a lane has a single owning
// goroutine); the simulator does so once per Run.
func (tc TraceContext) SpanRoom() int {
	if tc.jt == nil {
		return 0
	}
	return tc.jt.room(tc.lane)
}

// DropSpans counts n spans a producer left unbuilt because the lane had no
// room for them, exactly as recording and dropping them would have.
func (tc TraceContext) DropSpans(n int64) {
	if tc.jt == nil || n <= 0 {
		return
	}
	tc.jt.drop(n)
}

// Begin opens a wall-clock span at the current offset from the job base and
// returns the closure that ends it; attributes passed to either side are
// merged. The span is recorded at End time, preserving lane record order
// for nested spans ended in order.
func (tc TraceContext) Begin(name string, attrs ...Attr) func(endAttrs ...Attr) {
	if tc.jt == nil {
		return func(...Attr) {}
	}
	start := tc.jt.sinceBase()
	return func(endAttrs ...Attr) {
		end := tc.jt.sinceBase()
		all := attrs
		if len(endAttrs) > 0 {
			all = append(append([]Attr{}, attrs...), endAttrs...)
		}
		tc.jt.record(tc.lane, false, Span{
			Track: "", Name: name, Start: start, Dur: end - start, Attrs: all,
		})
	}
}

// Interval records a completed wall-clock span from explicit timestamps
// (e.g. queue wait between submit and dequeue), clamped at the job base.
func (tc TraceContext) Interval(name string, from, to time.Time, attrs ...Attr) {
	if tc.jt == nil {
		return
	}
	start := from.Sub(tc.jt.base).Microseconds()
	if start < 0 {
		start = 0
	}
	dur := to.Sub(from).Microseconds()
	if dur < 0 {
		dur = 0
	}
	tc.jt.record(tc.lane, false, Span{Name: name, Start: start, Dur: dur, Attrs: attrs})
}
