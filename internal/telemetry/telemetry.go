// Package telemetry is the instrumentation layer shared by every subsystem:
// a metrics registry of labeled atomic counters, gauges and fixed-bucket
// histograms, snapshotable to JSON, plus one span recorder (named track +
// begin/duration + attributes), the lane-partitioned JobTrace with per-lane
// bounds and drop accounting, exportable as Chrome trace-event JSON loadable
// in Perfetto or chrome://tracing.
//
// The paper's entire evaluation (Figs. 16-21) is built from per-tile
// utilization, stall, power-activity and link-bandwidth measurements; this
// package makes those measurements machine-readable and time-resolved
// instead of ad-hoc text.
//
// Design constraints:
//
//   - Zero overhead when disabled. Every producer holds a nil-able SpanSink,
//     a zero TraceContext (or a nil *Counter / *Histogram) and guards
//     recording with one test; no allocation, locking or formatting happens
//     on the disabled path.
//   - Safe under concurrent recorders. Counters, gauges and histogram
//     buckets are atomics; a JobTrace takes a short mutex per record or
//     batch. Later parallel-simulation work can adopt the package
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

// SpanSink receives spans one at a time from instrumented code (the
// compiler's phases, the reference executor's layers, the cluster's
// collectives); a TraceContext is one. Producers hold a SpanSink and skip
// recording entirely when it is nil — callers must therefore never pass a
// typed-nil concrete value.
type SpanSink interface {
	RecordSpan(Span)
}
