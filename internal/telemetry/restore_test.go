package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSnapshotRestoreRoundTrip pins the rehydration contract the result
// store depends on: snapshot → JSON → snapshot → Restore → merge must be
// indistinguishable from merging the original registry.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := NewRegistry()
	src.Counter("sim.cycles").Add(12345)
	src.Counter("sim.zero") // present but zero
	src.Counter("sweep.job.cycles", Label{Key: "job", Value: "simnet/baseline/mb2/eval"}).Add(99)
	src.Gauge("sim.pe_util").Set(0.8125)
	src.Gauge("sim.unset")
	h := src.Histogram("sim.op.cycles", []float64{1, 4, 16, 64})
	for _, v := range []float64{0.5, 3, 3, 17, 1000} {
		h.Observe(v)
	}
	src.Histogram("sim.empty", []float64{1, 2}, Label{Key: "k", Value: "v"})

	data, err := json.Marshal(src.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	restored, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}

	direct, viaRestore := NewRegistry(), NewRegistry()
	if err := direct.MergeFrom(src); err != nil {
		t.Fatal(err)
	}
	if err := viaRestore.MergeFrom(restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Snapshot(), viaRestore.Snapshot()) {
		t.Fatalf("merge of restored registry diverges:\n direct: %+v\nrestored: %+v",
			direct.Snapshot(), viaRestore.Snapshot())
	}

	// The restored registry itself also snapshots identically.
	if !reflect.DeepEqual(src.Snapshot(), restored.Snapshot()) {
		t.Fatalf("restored snapshot diverges:\n src: %+v\n restored: %+v",
			src.Snapshot(), restored.Snapshot())
	}
}

// TestSnapshotRestoreRejectsMalformed: a snapshot read back from disk can
// hold anything, and Registry.Histogram panics on bounds that are not
// strictly ascending, so Restore must reject every shape no Registry
// could have written with an error.
func TestSnapshotRestoreRejectsMalformed(t *testing.T) {
	for name, les := range map[string][]string{
		"+Inf not last": {"+Inf", "1"},
		"unparseable":   {"wat", "+Inf"},
		"swapped":       {"4", "1", "16", "+Inf"},
		"repeated":      {"1", "1", "+Inf"},
		"nan":           {"1", "NaN", "+Inf"},
		"inf":           {"1", "Inf", "+Inf"},
		"-inf":          {"-Inf", "1", "+Inf"},
		"overflow":      {"1", "1e400", "+Inf"},
	} {
		var buckets []BucketSnap
		for _, le := range les {
			buckets = append(buckets, BucketSnap{LE: le, Count: 1})
		}
		bad := Snapshot{Histograms: []HistogramSnap{{Name: "h", Buckets: buckets, Count: int64(len(les))}}}
		if _, err := bad.Restore(); err == nil {
			t.Errorf("%s bounds %v accepted", name, les)
		}
	}
	h := HistogramSnap{Name: "h", Buckets: []BucketSnap{{LE: "1"}, {LE: "+Inf"}}}
	if _, err := (Snapshot{Histograms: []HistogramSnap{h, h}}).Restore(); err == nil {
		t.Error("histogram listed twice accepted")
	}
}
