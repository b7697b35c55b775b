package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one dimension of a metric (e.g. {link, comp-mem}).
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop) — the shape inflight/queue-depth
// gauges need, where concurrent handlers increment on entry and decrement on
// exit and a Set would lose updates.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with bounds[i-1] < v ≤ bounds[i]; one overflow bucket
// catches everything above the last bound.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	counts  []atomic.Int64
	total   atomic.Int64
	sumBits atomic.Uint64 // float64 running sum, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// AddBatch folds pre-aggregated observations into the histogram: counts is
// indexed like the internal bucket array (one slot per bound plus the
// overflow bucket), n is the total observation count and sum their running
// sum. Hot paths that bucket locally (e.g. the simulator's per-run shadow
// histograms) flush through this instead of paying one atomic Observe per
// sample.
func (h *Histogram) AddBatch(counts []int64, sum float64, n int64) {
	if n == 0 {
		return
	}
	for i, c := range counts {
		if c != 0 && i < len(h.counts) {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry holds named, labeled metrics. Metric lookup takes a mutex;
// recording on a retrieved metric is lock-free, so hot paths should cache
// the *Counter / *Gauge / *Histogram they use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*counterEntry
	gauges     map[string]*gaugeEntry
	histograms map[string]*histogramEntry
}

type counterEntry struct {
	name   string
	labels []Label
	c      Counter
}

type gaugeEntry struct {
	name   string
	labels []Label
	g      Gauge
}

type histogramEntry struct {
	name   string
	labels []Label
	h      *Histogram
}

// NewRegistry returns an empty registry. Maps are pre-sized for a typical
// simulator publish so first-use metric creation does not grow them.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*counterEntry, 16),
		gauges:     make(map[string]*gaugeEntry, 8),
		histograms: make(map[string]*histogramEntry, 8),
	}
}

func metricKey(name string, labels []Label) string {
	switch len(labels) {
	case 0:
		return name
	case 1:
		// Common case (one label): a single-allocation concat, no sort.
		return name + "|" + labels[0].Key + "=" + labels[0].Value
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range sortedLabels(labels) {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortedLabels returns a copy of labels sorted by key.
func sortedLabels(labels []Label) []Label {
	sorted := append([]Label(nil), labels...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	return sorted
}

// Counter returns the counter with the given name and labels, creating it on
// first use. The labels slice is retained on creation; callers must not
// mutate it afterwards (variadic call sites always satisfy this).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[key]
	if !ok {
		e = &counterEntry{name: name, labels: labels}
		r.counters[key] = e
	}
	return &e.c
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.gauges[key]
	if !ok {
		e = &gaugeEntry{name: name, labels: labels}
		r.gauges[key] = e
	}
	return &e.g
}

// Histogram returns the histogram with the given name, bucket upper bounds
// and labels, creating it on first use. Bounds must be ascending; they are
// fixed at creation and ignored on subsequent lookups.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.histograms[key]
	if !ok {
		e = newHistogramEntry(name, labels, bounds)
		r.histograms[key] = e
	}
	return e.h
}

func newHistogramEntry(name string, labels []Label, bounds []float64) *histogramEntry {
	return &histogramEntry{name: name, labels: labels, h: newHistogram(bounds)}
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// MergeFrom folds src's metrics into r: counters add, histograms add their
// per-bucket counts and running sums, gauges take src's value (so when
// several registries are merged in sequence, the last merged gauge wins —
// callers wanting per-source gauges should label them per source). A
// histogram present in both registries must have identical bucket bounds.
//
// This is the aggregation step of a parallel sweep: each job records into an
// isolated registry (no cross-job lock contention, no interleaved label
// creation), and the engine merges them in job order at the end so the
// combined snapshot is deterministic regardless of completion order.
func (r *Registry) MergeFrom(src *Registry) error {
	if src == nil || src == r {
		return nil
	}
	type histCopy struct {
		name   string
		labels []Label
		bounds []float64
		counts []int64
		total  int64
		sum    float64
	}
	src.mu.Lock()
	type counterCopy struct {
		name   string
		labels []Label
		value  int64
	}
	ccs := make([]counterCopy, 0, len(src.counters))
	for _, e := range src.counters {
		ccs = append(ccs, counterCopy{e.name, e.labels, e.c.Value()})
	}
	type gaugeCopy struct {
		name   string
		labels []Label
		value  float64
	}
	gcs := make([]gaugeCopy, 0, len(src.gauges))
	for _, e := range src.gauges {
		gcs = append(gcs, gaugeCopy{e.name, e.labels, e.g.Value()})
	}
	hcs := make([]histCopy, 0, len(src.histograms))
	for _, e := range src.histograms {
		hc := histCopy{name: e.name, labels: e.labels, bounds: e.h.bounds,
			total: e.h.Count(), sum: e.h.Sum()}
		hc.counts = make([]int64, len(e.h.counts))
		for i := range e.h.counts {
			hc.counts[i] = e.h.counts[i].Load()
		}
		hcs = append(hcs, hc)
	}
	src.mu.Unlock()

	for _, c := range ccs {
		if c.value != 0 {
			r.Counter(c.name, c.labels...).Add(c.value)
		}
	}
	for _, g := range gcs {
		r.Gauge(g.name, g.labels...).Set(g.value)
	}
	for _, hc := range hcs {
		h := r.Histogram(hc.name, hc.bounds, hc.labels...)
		if len(h.bounds) != len(hc.bounds) {
			return fmt.Errorf("telemetry: merge of histogram %q: bucket count %d != %d", hc.name, len(h.bounds), len(hc.bounds))
		}
		for i, b := range h.bounds {
			if b != hc.bounds[i] {
				return fmt.Errorf("telemetry: merge of histogram %q: bound %v != %v", hc.name, b, hc.bounds[i])
			}
		}
		for i, c := range hc.counts {
			if c != 0 {
				h.counts[i].Add(c)
			}
		}
		if hc.total != 0 {
			h.total.Add(hc.total)
			for {
				old := h.sumBits.Load()
				next := math.Float64bits(math.Float64frombits(old) + hc.sum)
				if h.sumBits.CompareAndSwap(old, next) {
					break
				}
			}
		}
	}
	return nil
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// BucketSnap is one histogram bucket: the count of observations at or below
// the upper bound LE (exclusive of lower buckets); LE is "+Inf" for the
// overflow bucket. Counts are per-bucket, not cumulative.
type BucketSnap struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnap is one histogram in a snapshot.
type HistogramSnap struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []BucketSnap      `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric in a registry,
// marshalable with encoding/json.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot copies the registry's current values, sorted by name then label
// key for deterministic output.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for key, e := range r.counters {
		_ = key
		s.Counters = append(s.Counters, CounterSnap{Name: e.name, Labels: labelMap(e.labels), Value: e.c.Value()})
	}
	for _, e := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: e.name, Labels: labelMap(e.labels), Value: e.g.Value()})
	}
	for _, e := range r.histograms {
		// Count is summed from the bucket loads rather than read from the
		// total, so a snapshot taken while Observe runs stays consistent
		// (count == +Inf bucket), as the OpenMetrics exposition requires.
		hs := HistogramSnap{Name: e.name, Labels: labelMap(e.labels), Sum: e.h.Sum()}
		for i := range e.h.counts {
			le := "+Inf"
			if i < len(e.h.bounds) {
				le = strconv.FormatFloat(e.h.bounds[i], 'g', -1, 64)
			}
			c := e.h.counts[i].Load()
			hs.Count += c
			hs.Buckets = append(hs.Buckets, BucketSnap{LE: le, Count: c})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sortSnaps(s.Counters, func(c CounterSnap) (string, map[string]string) { return c.Name, c.Labels })
	sortSnaps(s.Gauges, func(g GaugeSnap) (string, map[string]string) { return g.Name, g.Labels })
	sortSnaps(s.Histograms, func(h HistogramSnap) (string, map[string]string) { return h.Name, h.Labels })
	return s
}

func sortSnaps[T any](snaps []T, key func(T) (string, map[string]string)) {
	sort.Slice(snaps, func(i, j int) bool {
		ni, li := key(snaps[i])
		nj, lj := key(snaps[j])
		if ni != nj {
			return ni < nj
		}
		return fmt.Sprint(li) < fmt.Sprint(lj)
	})
}

// WriteJSON writes an indented JSON snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
