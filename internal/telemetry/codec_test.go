package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestRegistryEncodingRoundTrip pins the contract the result store depends
// on: encode → DecodeRegistry → merge is indistinguishable from merging the
// original registry, and the decoded registry snapshots and re-encodes
// exactly like the original.
func TestRegistryEncodingRoundTrip(t *testing.T) {
	src := NewRegistry()
	src.Counter("sim.cycles").Add(12345)
	src.Counter("sim.zero") // present but zero
	src.Counter("sim.negative").Add(-7)
	src.Counter("sweep.job.cycles", Label{Key: "job", Value: "simnet/baseline/mb2/eval"}).Add(99)
	src.Counter("multi", Label{Key: "z", Value: "1"}, Label{Key: "a", Value: "2"}).Add(3)
	src.Gauge("sim.pe_util").Set(0.8125)
	src.Gauge("sim.unset")
	src.Gauge("sim.nan").Set(math.NaN())
	h := src.Histogram("sim.op.cycles", []float64{1, 4, 16, 64})
	for _, v := range []float64{0.5, 3, 3, 17, 1000} {
		h.Observe(v)
	}
	src.Histogram("sim.empty", []float64{1, 2}, Label{Key: "k", Value: "v"})
	src.Histogram("sim.overflow_only", nil).Observe(-3)

	enc := src.AppendEncoding(nil)
	restored, err := DecodeRegistry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if again := restored.AppendEncoding(nil); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs:\n%x\n%x", again, enc)
	}
	if a, b := restored.Counter("multi", Label{Key: "a", Value: "2"}, Label{Key: "z", Value: "1"}).Value(), int64(3); a != b {
		t.Fatalf("two-label counter restored as %d, want %d", a, b)
	}
	za, az := NewRegistry(), NewRegistry()
	za.Counter("multi", Label{Key: "z", Value: "1"}, Label{Key: "a", Value: "2"})
	az.Counter("multi", Label{Key: "a", Value: "2"}, Label{Key: "z", Value: "1"})
	if !bytes.Equal(za.AppendEncoding(nil), az.AppendEncoding(nil)) {
		t.Fatal("the order labels were given in changes the encoding")
	}

	// NaN is not JSON; compare everything else through the JSON snapshot.
	src.Gauge("sim.nan").Set(0)
	restored.Gauge("sim.nan").Set(0)
	want, _ := json.Marshal(src.Snapshot())
	got, _ := json.Marshal(restored.Snapshot())
	if !bytes.Equal(got, want) {
		t.Fatalf("decoded snapshot diverges:\n got: %s\nwant: %s", got, want)
	}
	direct, viaDecode := NewRegistry(), NewRegistry()
	if err := direct.MergeFrom(src); err != nil {
		t.Fatal(err)
	}
	if err := viaDecode.MergeFrom(restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Snapshot(), viaDecode.Snapshot()) {
		t.Fatalf("merge of decoded registry diverges:\n  direct: %+v\n decoded: %+v",
			direct.Snapshot(), viaDecode.Snapshot())
	}
	if c, s := restored.Histogram("sim.op.cycles", nil).Count(), h.Count(); c != s {
		t.Fatalf("decoded histogram count %d, want %d", c, s)
	}
}

// withHistogram returns the encoding of a registry holding one histogram
// per bounds list, each named h and placed under its own map key, so the
// encoder writes bounds and duplicates no Registry method would accept.
func withHistogram(bounds ...[]float64) []byte {
	r := NewRegistry()
	for i, b := range bounds {
		r.histograms[string(rune('a'+i))] = newHistogramEntry("h", nil, b)
	}
	return r.AppendEncoding(nil)
}

// TestDecodeRegistryRejectsMalformed: DecodeRegistry rejects every
// malformed shape the binary form can carry — histogram bounds swapped,
// repeated, NaN or ±Inf, and a series listed twice — plus a truncated
// encoding and trailing bytes.
func TestDecodeRegistryRejectsMalformed(t *testing.T) {
	if _, err := DecodeRegistry(withHistogram([]float64{1, 4, 16})); err != nil {
		t.Fatalf("well-formed histogram rejected: %v", err)
	}
	for name, bounds := range map[string][]float64{
		"swapped":  {4, 1, 16},
		"repeated": {1, 1},
		"nan":      {1, math.NaN()},
		"inf":      {1, math.Inf(1)},
		"-inf":     {math.Inf(-1), 1},
	} {
		if _, err := DecodeRegistry(withHistogram(bounds)); err == nil {
			t.Errorf("%s bounds %v accepted", name, bounds)
		}
	}
	if _, err := DecodeRegistry(withHistogram([]float64{1}, []float64{1})); err == nil {
		t.Error("histogram listed twice accepted")
	}

	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Counter("b", Label{Key: "k", Value: "v"}).Add(2)
	enc := r.AppendEncoding(nil)
	for i := range enc {
		if _, err := DecodeRegistry(enc[:i]); err == nil {
			t.Errorf("%d-byte prefix of a %d-byte encoding accepted", i, len(enc))
		}
	}
	if _, err := DecodeRegistry(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	r.counters["a~"] = &counterEntry{name: "a"} // "a" again, under another key
	if _, err := DecodeRegistry(r.AppendEncoding(nil)); err == nil {
		t.Error("counter listed twice accepted")
	}
}
