package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
)

func storeTestGrid() Grid {
	return Grid{
		Workloads:   []string{"simnet", "fcnet"},
		Archs:       []string{"baseline"},
		Minibatches: []int{1, 2},
		Modes:       []string{"eval", "train"},
		Iterations:  2,
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreRestartRoundTrip is the headline property: a sweep populates the
// store, the process "restarts" (new Store on the same directory), and the
// second sweep is served from disk with byte-identical tables and merged
// metrics — while a third run in the same process hits the memory tier.
func TestStoreRestartRoundTrip(t *testing.T) {
	g := storeTestGrid()
	dir := t.TempDir()
	ctx := context.Background()

	cold := openStore(t, dir)
	coldReg := telemetry.NewRegistry()
	coldResults, err := RunGrid(ctx, g, Options{Workers: 2, Metrics: coldReg, Store: cold})
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.Puts == 0 || st.DiskHits != 0 || st.MemHits != 0 {
		t.Fatalf("cold stats %+v: want only puts", st)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := openStore(t, dir) // simulated restart
	warmReg := telemetry.NewRegistry()
	warmResults, err := RunGrid(ctx, g, Options{Workers: 2, Metrics: warmReg, Store: warm})
	if err != nil {
		t.Fatal(err)
	}
	wst := warm.Stats()
	if wst.DiskHits == 0 || wst.Puts != 0 || wst.Misses != 0 {
		t.Fatalf("warm stats %+v: want pure disk hits", wst)
	}
	if !reflect.DeepEqual(coldResults, warmResults) {
		t.Fatal("warm results differ from cold results")
	}
	if !bytes.Equal(renderAll(t, coldResults), renderAll(t, warmResults)) {
		t.Fatal("rendered tables differ between cold and warm runs")
	}
	coldSnap, _ := json.Marshal(coldReg.Snapshot())
	warmSnap, _ := json.Marshal(warmReg.Snapshot())
	if !bytes.Equal(coldSnap, warmSnap) {
		t.Fatalf("merged metrics differ between cold and warm runs:\ncold: %s\nwarm: %s", coldSnap, warmSnap)
	}

	// Same process again: the memory tier serves everything.
	memReg := telemetry.NewRegistry()
	memResults, err := RunGrid(ctx, g, Options{Workers: 2, Metrics: memReg, Store: warm})
	if err != nil {
		t.Fatal(err)
	}
	mst := warm.Stats()
	if mst.MemHits == 0 || mst.Puts != 0 {
		t.Fatalf("mem stats %+v: want memory hits", mst)
	}
	if !reflect.DeepEqual(coldResults, memResults) {
		t.Fatal("memory-tier results differ")
	}
	memSnap, _ := json.Marshal(memReg.Snapshot())
	if !bytes.Equal(coldSnap, memSnap) {
		t.Fatal("merged metrics differ on the memory tier")
	}
}

// TestStoreByteIdenticalAcrossWorkers pins the sweep determinism guarantee
// with the persistent tier engaged, cold and warm.
func TestStoreByteIdenticalAcrossWorkers(t *testing.T) {
	g := storeTestGrid()
	var ref []byte
	for i, workers := range []int{1, 3, 8} {
		dir := t.TempDir()
		for pass := 0; pass < 2; pass++ { // pass 0 cold, pass 1 warm
			s := openStore(t, dir)
			results, err := RunGrid(context.Background(), g, Options{Workers: workers, Store: s})
			if err != nil {
				t.Fatal(err)
			}
			rendered := renderAll(t, results)
			if i == 0 && pass == 0 {
				ref = rendered
			} else if !bytes.Equal(ref, rendered) {
				t.Fatalf("workers=%d pass=%d: output differs", workers, pass)
			}
			s.Close()
		}
	}
}

// TestStoreCorruptBlobResimulated truncates every stored blob; the next
// sweep must quarantine them, re-simulate, and still produce identical
// output.
func TestStoreCorruptBlobResimulated(t *testing.T) {
	g := Grid{Workloads: []string{"simnet"}, Archs: []string{"baseline"},
		Minibatches: []int{1, 2}, Modes: []string{"eval"}}
	dir := t.TempDir()
	ctx := context.Background()

	s := openStore(t, dir)
	coldResults, err := RunGrid(ctx, g, Options{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	keys := s.Keys()
	if len(keys) == 0 {
		t.Fatal("no blobs written")
	}
	s.Close()

	for _, key := range keys {
		path := filepath.Join(dir, "blobs", key)
		if err := os.Truncate(path, 8); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openStore(t, dir)
	warmResults, err := RunGrid(ctx, g, Options{Store: s2})
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Corrupt != int64(len(keys)) || st.Puts != int64(len(keys)) {
		t.Fatalf("stats %+v: want every blob quarantined and re-simulated", st)
	}
	if !reflect.DeepEqual(coldResults, warmResults) {
		t.Fatal("re-simulated results differ")
	}
	// Quarantined copies exist for post-mortem; fresh blobs serve the next run.
	for _, key := range keys {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", key)); err != nil {
			t.Fatalf("blob %s not quarantined: %v", key[:8], err)
		}
	}
	s3 := openStore(t, dir)
	if _, err := RunGrid(ctx, g, Options{Store: s3}); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.DiskHits == 0 || st.Puts != 0 {
		t.Fatalf("stats %+v: want recovered blobs to serve from disk", st)
	}
}

// TestVerifyStorePassesOnHonestBlobs runs a warm sweep with verify-on-hit
// sampling enabled: every audited hit must reproduce its blob exactly.
func TestVerifyStorePassesOnHonestBlobs(t *testing.T) {
	g := storeTestGrid()
	dir := t.TempDir()
	ctx := context.Background()
	s := openStore(t, dir)
	if _, err := RunGrid(ctx, g, Options{Store: s}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	if _, err := RunGrid(ctx, g, Options{Store: s2, VerifyStore: true}); err != nil {
		t.Fatalf("verify-store failed on honest blobs: %v", err)
	}
}

// TestVerifyStoreCatchesTamperedBlob overwrites one audited cell with a
// CRC-valid but wrong blob: framing cannot catch it, verify-on-hit must.
func TestVerifyStoreCatchesTamperedBlob(t *testing.T) {
	g := storeTestGrid()
	dir := t.TempDir()
	ctx := context.Background()
	s := openStore(t, dir)
	if _, err := RunGrid(ctx, g, Options{Store: s}); err != nil {
		t.Fatal(err)
	}

	tampered := 0
	for _, key := range s.Keys() {
		if !auditHit(key) {
			continue
		}
		payload, ok, err := s.Get(key)
		if err != nil || !ok {
			t.Fatal("stored key vanished")
		}
		var blob map[string]any
		if err := json.Unmarshal(payload, &blob); err != nil {
			t.Fatal(err)
		}
		measure := blob["measure"].(map[string]any)
		measure["cycles"] = measure["cycles"].(float64) + 1
		bad, _ := json.Marshal(blob)
		if err := s.Put(key, bad); err != nil {
			t.Fatal(err)
		}
		tampered++
	}
	if tampered == 0 {
		t.Skip("no audited keys in this grid (sampling nibble); widen the grid")
	}
	if _, err := RunGrid(ctx, g, Options{Store: s, VerifyStore: true}); err == nil {
		t.Fatal("verify-store accepted a tampered blob")
	}
}

// TestStoreKeyDiscriminates: distinct cells get distinct keys, equivalent
// cells (eval iters normalization) share one, and the key tracks the
// workload's actual topology, not just its name.
func TestStoreKeyDiscriminates(t *testing.T) {
	base := Job{Workload: "simnet", Arch: "baseline", Minibatch: 2, Mode: "eval", Iters: 1}
	kbase, err := storeKey(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []Job{
		{Workload: "fcnet", Arch: "baseline", Minibatch: 2, Mode: "eval", Iters: 1},
		{Workload: "simnet", Arch: "half", Minibatch: 2, Mode: "eval", Iters: 1},
		{Workload: "simnet", Arch: "baseline", Minibatch: 4, Mode: "eval", Iters: 1},
		{Workload: "simnet", Arch: "baseline", Minibatch: 2, Mode: "train", Iters: 1},
		{Workload: "simnet", Arch: "baseline", Minibatch: 2, Mode: "train", Iters: 3},
	} {
		k, err := storeKey(alt)
		if err != nil {
			t.Fatal(err)
		}
		if k == kbase {
			t.Fatalf("job %+v shares a key with %+v", alt, base)
		}
	}
	// Eval cells normalize iterations away.
	evalIters := Job{Workload: "simnet", Arch: "baseline", Minibatch: 2, Mode: "eval", Iters: 9}
	if k, _ := storeKey(evalIters); k != kbase {
		t.Fatal("eval iters not normalized out of the key")
	}
	// Case-insensitive names share a key (cellKey lowercases them).
	upper := Job{Workload: "SimNet", Arch: "Baseline", Minibatch: 2, Mode: "eval", Iters: 1}
	if k, _ := storeKey(upper); k != kbase {
		t.Fatal("workload/arch case changes the key")
	}
}

// TestStoreSchemaMismatchQuarantined plants a decodable-framing,
// wrong-schema blob under a live key: the sweep must quarantine it and
// re-simulate rather than trust it.
func TestStoreSchemaMismatchQuarantined(t *testing.T) {
	g := Grid{Workloads: []string{"simnet"}, Archs: []string{"baseline"},
		Minibatches: []int{1}, Modes: []string{"eval"}}
	dir := t.TempDir()
	ctx := context.Background()
	s := openStore(t, dir)
	coldResults, err := RunGrid(ctx, g, Options{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	keys := s.Keys()
	if len(keys) != 1 {
		t.Fatalf("want 1 blob, got %d", len(keys))
	}
	bad, _ := json.Marshal(resultBlob{Schema: storeSchema + 1, Cell: "impostor"})
	if err := s.Put(keys[0], bad); err != nil {
		t.Fatal(err)
	}
	results, err := RunGrid(ctx, g, Options{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldResults, results) {
		t.Fatal("schema-mismatched blob leaked into results")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", keys[0])); err != nil {
		t.Fatalf("wrong-schema blob not quarantined: %v", err)
	}
}

// swapOpCycleBounds returns payload with the first two bucket bounds of
// its first sim.op.cycles histogram swapped: CRC-valid once stored, and
// well-formed JSON, but the bounds are no longer ascending.
func swapOpCycleBounds(t testing.TB, payload []byte) []byte {
	t.Helper()
	var blob resultBlob
	if err := json.Unmarshal(payload, &blob); err != nil {
		t.Fatal(err)
	}
	for i, h := range blob.Metrics.Histograms {
		if h.Name == "sim.op.cycles" && len(h.Buckets) > 2 {
			b := blob.Metrics.Histograms[i].Buckets
			b[0].LE, b[1].LE = b[1].LE, b[0].LE
			bad, err := json.Marshal(blob)
			if err != nil {
				t.Fatal(err)
			}
			return bad
		}
	}
	t.Fatal("blob has no sim.op.cycles histogram with two bounds")
	return nil
}

// TestStoreSwappedBoundsQuarantined plants a blob whose histogram bounds
// are out of order: restoring it must fail as a decode error, so the sweep
// quarantines the blob and re-simulates the cell instead of panicking.
func TestStoreSwappedBoundsQuarantined(t *testing.T) {
	g := Grid{Workloads: []string{"simnet"}, Archs: []string{"baseline"},
		Minibatches: []int{1}, Modes: []string{"eval"}}
	dir := t.TempDir()
	ctx := context.Background()
	s := openStore(t, dir)
	coldReg := telemetry.NewRegistry()
	coldResults, err := RunGrid(ctx, g, Options{Store: s, Metrics: coldReg})
	if err != nil {
		t.Fatal(err)
	}
	keys := s.Keys()
	if len(keys) != 1 {
		t.Fatalf("want 1 blob, got %d", len(keys))
	}
	payload, ok, err := s.Get(keys[0])
	if err != nil || !ok {
		t.Fatal("stored key vanished")
	}
	if err := s.Put(keys[0], swapOpCycleBounds(t, payload)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, dir)
	warmReg := telemetry.NewRegistry()
	results, err := RunGrid(ctx, g, Options{Store: s2, Metrics: warmReg})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Puts != 1 {
		t.Fatalf("stats %+v: want the cell re-simulated and stored once", st)
	}
	if !reflect.DeepEqual(coldResults, results) {
		t.Fatal("re-simulated results differ from the cold run")
	}
	coldSnap, _ := json.Marshal(coldReg.Snapshot())
	warmSnap, _ := json.Marshal(warmReg.Snapshot())
	if !bytes.Equal(coldSnap, warmSnap) {
		t.Fatal("merged metrics differ from the cold run")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", keys[0])); err != nil {
		t.Fatalf("blob with swapped bounds not quarantined: %v", err)
	}
}
