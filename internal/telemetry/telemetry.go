// Package telemetry is the instrumentation layer shared by every subsystem:
// a metrics registry of labeled atomic counters, gauges and fixed-bucket
// histograms, snapshotable to JSON, plus a span recorder (named track +
// begin/duration + attributes) backed by a bounded ring buffer with drop
// accounting, exportable as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing.
//
// The paper's entire evaluation (Figs. 16-21) is built from per-tile
// utilization, stall, power-activity and link-bandwidth measurements; this
// package makes those measurements machine-readable and time-resolved
// instead of ad-hoc text.
//
// Design constraints:
//
//   - Zero overhead when disabled. Every producer holds a nil-able SpanSink
//     (or *Counter / *Histogram) and guards recording with a nil check; no
//     allocation, locking or formatting happens on the disabled path.
//   - Safe under concurrent recorders. Counters, gauges and histogram
//     buckets are atomics; the span ring buffer takes a short mutex per
//     record. Later parallel-simulation work can adopt the package
//     unchanged.
//
// Time units are producer-defined per track: simulator and cluster tracks
// record cycles, compiler and executor tracks record wall-clock
// microseconds. The Chrome exporter passes timestamps through verbatim.
package telemetry

// Attr is one key/value attribute attached to a span (rendered into the
// Chrome trace event's "args").
type Attr struct {
	Key   string
	Value string
}

// Span is one named interval on a named track: an op's execution on a tile,
// a collective transfer on a link, a compiler phase, a training epoch.
// Instant events (stalls) are spans with Dur == 0.
type Span struct {
	Track string // timeline the span belongs to (tile, link, phase group)
	Name  string // what happened (mnemonic, collective, phase)
	Start int64  // begin time in the track's unit (cycles or µs)
	Dur   int64  // duration in the same unit; 0 for instant events
	Attrs []Attr
}

// SpanSink receives spans from instrumented code. Producers hold a SpanSink
// and skip recording entirely when it is nil — callers must therefore never
// pass a typed-nil concrete value.
type SpanSink interface {
	RecordSpan(Span)
}

// SpanBatchSink is the optional bulk extension of SpanSink: sinks that can
// ingest a batch under one lock implement it (Trace does), and producers
// that buffer spans locally type-assert for it at flush time, falling back
// to per-span RecordSpan calls.
type SpanBatchSink interface {
	SpanSink
	RecordSpans([]Span)
}

// SpanBudgetSink is the optional bounded extension of SpanBatchSink: a sink
// that keeps only so many more spans says how many (SpanRoom), and takes
// the count of spans a producer did not build because they fell past that
// room (DropSpans), so its drop accounting reads exactly as if it had been
// handed them. A producer reads SpanRoom once before a stretch of emission
// that nothing else records into the sink during (TraceContext's lane has a
// single owning goroutine); the simulator does so once per Run.
type SpanBudgetSink interface {
	SpanBatchSink
	SpanRoom() int
	DropSpans(n int64)
}
