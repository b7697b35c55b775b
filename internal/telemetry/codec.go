package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// This file is the binary form of a registry's contents — the metrics half
// of a result-store blob (internal/sweep/store.go, DESIGN.md §5f).
// AppendEncoding writes it straight from the registry's maps and
// DecodeRegistry reads it straight back into a fresh registry, with no
// Snapshot in between. The layout is three sections, in order:
//
//	counters    uvarint n, then n × (series, varint value)
//	gauges      uvarint n, then n × (series, float64 value)
//	histograms  uvarint n, then n × (series, uvarint b, b × float64 bound,
//	            (b+1) × varint bucket count, float64 sum)
//
// A series is its name, a uvarint label count and each label's key and
// value, labels sorted by key. A string is a uvarint byte length and the
// bytes; a float64 is its IEEE 754 bits, little-endian. Each section lists
// its series in ascending registry-key order (metricKey), so the encoding
// is a deterministic function of the registry's contents.

// AppendEncoding appends the registry's metrics to b in the binary form
// above and returns the extended slice.
func (r *Registry) AppendEncoding(b []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	b = binary.AppendUvarint(b, uint64(len(r.counters)))
	for _, k := range sortedKeys(r.counters) {
		e := r.counters[k]
		b = appendSeries(b, e.name, e.labels)
		b = binary.AppendVarint(b, e.c.Value())
	}
	b = binary.AppendUvarint(b, uint64(len(r.gauges)))
	for _, k := range sortedKeys(r.gauges) {
		e := r.gauges[k]
		b = appendSeries(b, e.name, e.labels)
		b = binary.LittleEndian.AppendUint64(b, e.g.bits.Load())
	}
	b = binary.AppendUvarint(b, uint64(len(r.histograms)))
	for _, k := range sortedKeys(r.histograms) {
		e := r.histograms[k]
		b = appendSeries(b, e.name, e.labels)
		b = binary.AppendUvarint(b, uint64(len(e.h.bounds)))
		for _, v := range e.h.bounds {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		for i := range e.h.counts {
			b = binary.AppendVarint(b, e.h.counts[i].Load())
		}
		b = binary.LittleEndian.AppendUint64(b, e.h.sumBits.Load())
	}
	return b
}

func sortedKeys[E any](m map[string]E) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendSeries(b []byte, name string, labels []Label) []byte {
	b = appendString(b, name)
	if len(labels) > 1 {
		labels = sortedLabels(labels)
	}
	b = binary.AppendUvarint(b, uint64(len(labels)))
	for _, l := range labels {
		b = appendString(appendString(b, l.Key), l.Value)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// DecodeRegistry builds a fresh registry from bytes AppendEncoding wrote —
// its inverse, up to instrument creation order, so MergeFrom on the result
// contributes exactly what the encoded registry would have. The bytes are
// read back from disk, so anything no registry could have written is an
// error, never a panic: a length or count larger than the bytes left (so no
// length can force a large allocation either), histogram bounds that are
// not finite and strictly ascending, a series out of registry-key order or
// listed twice, and bytes left over after the last histogram.
func DecodeRegistry(data []byte) (*Registry, error) {
	d := decoder{b: data}
	// Minimum encoded sizes bound each count: a series takes an empty name
	// and a zero label count (2 bytes) plus its value.
	n := d.count(3)
	r := &Registry{counters: make(map[string]*counterEntry, n)}
	var prev string
	for i := 0; i < n && d.err == nil; i++ {
		name, labels, key := d.series("counter", i, &prev)
		e := &counterEntry{name: name, labels: labels}
		e.c.v.Store(d.varint())
		r.counters[key] = e
	}
	n = d.count(10)
	r.gauges = make(map[string]*gaugeEntry, n)
	for i := 0; i < n && d.err == nil; i++ {
		name, labels, key := d.series("gauge", i, &prev)
		e := &gaugeEntry{name: name, labels: labels}
		e.g.bits.Store(d.bits())
		r.gauges[key] = e
	}
	n = d.count(12)
	r.histograms = make(map[string]*histogramEntry, n)
	for i := 0; i < n && d.err == nil; i++ {
		name, labels, key := d.series("histogram", i, &prev)
		bounds := make([]float64, d.count(8))
		for j := range bounds {
			v := math.Float64frombits(d.bits())
			switch {
			case math.IsNaN(v) || math.IsInf(v, 0):
				d.fail("histogram %q: bound %v not finite", name, v)
			case j > 0 && v <= bounds[j-1]:
				d.fail("histogram %q: bound %v not above %v", name, v, bounds[j-1])
			}
			bounds[j] = v
		}
		h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		var total int64
		for j := range h.counts {
			c := d.varint()
			h.counts[j].Store(c)
			total += c
		}
		h.total.Store(total)
		h.sumBits.Store(d.bits())
		r.histograms[key] = &histogramEntry{name: name, labels: labels, h: h}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// decoder reads the binary form. The first failure is kept and empties the
// input, so every later read fails fast and returns zero values.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("telemetry: decode: "+format, args...)
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad or truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad or truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bits reads a little-endian 64-bit word.
func (d *decoder) bits() uint64 {
	if len(d.b) < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// count reads the length of a list whose items each take at least size
// bytes, and fails unless the bytes left could hold that many.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if left := len(d.b); n > uint64(left/size) {
		d.fail("count %d does not fit in the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// series reads the i-th series header of a section and returns its name,
// labels and registry key. Keys must ascend strictly within a section;
// prev carries the previous key across calls.
func (d *decoder) series(kind string, i int, prev *string) (string, []Label, string) {
	name := d.str()
	var labels []Label
	if n := d.count(2); n > 0 {
		labels = make([]Label, n)
		for j := range labels {
			labels[j].Key = d.str()
			labels[j].Value = d.str()
		}
	}
	key := metricKey(name, labels)
	if i > 0 && key <= *prev {
		d.fail("%s %q out of order or listed twice", kind, key)
	}
	*prev = key
	return name, labels, key
}
