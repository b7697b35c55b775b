package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
		widenBudget(t, workers)
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

// TestRunGridFailsWithoutBlobsDir: a store whose blobs directory vanished
// after Open cannot persist a cell, and a failed store write fails the
// sweep: RunGrid returns the error and no rows.
func TestRunGridFailsWithoutBlobsDir(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := os.RemoveAll(filepath.Join(dir, "blobs")); err != nil {
		t.Fatal(err)
	}
	g := Grid{Workloads: []string{"simnet"}, Archs: []string{"baseline"}, Minibatches: []int{1}, Modes: []string{"eval"}}
	rows, err := RunGrid(context.Background(), g, Options{Store: s})
	if err == nil || len(rows) != 0 {
		t.Fatalf("RunGrid on a store without blobs/: %d rows, err=%v; want an error and no rows", len(rows), err)
	}
}

// TestVerifyStorePassesOnHonestBlobs runs a warm sweep with verify-on-hit
// sampling enabled: every audited hit must reproduce its blob exactly. The
// cold pass spells the workloads in another case, which shares their keys,
// so a blob must not depend on how a job names its cell.
func TestVerifyStorePassesOnHonestBlobs(t *testing.T) {
	g := storeTestGrid()
	dir := t.TempDir()
	ctx := context.Background()
	s := openStore(t, dir)
	cold := g
	cold.Workloads = []string{"SimNet", "FCNet"}
	if _, err := RunGrid(ctx, cold, Options{Store: s}); err != nil {
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
		if err := s.Put(key, bumpCycles(t, payload)); err != nil {
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
	payload, ok, err := s.Get(keys[0])
	if err != nil || !ok {
		t.Fatal("stored key vanished")
	}
	if err := s.Put(keys[0], bumpSchema(t, payload)); err != nil {
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

// bumpCycles returns payload re-encoded with a cycle count one higher:
// CRC-valid once stored and decodable, but not what the cell simulates to.
func bumpCycles(t testing.TB, payload []byte) []byte {
	t.Helper()
	r, reg, err := decodeBlob(Job{}, payload)
	if err != nil {
		t.Fatal(err)
	}
	r.Cycles++
	return encodeBlob(r, reg)
}

// bumpSchema returns payload with its leading schema number one higher.
func bumpSchema(t testing.TB, payload []byte) []byte {
	t.Helper()
	schema, n := binary.Uvarint(payload)
	if n <= 0 || schema != storeSchema {
		t.Fatalf("payload does not start with schema %d", storeSchema)
	}
	return append(binary.AppendUvarint(nil, storeSchema+1), payload[n:]...)
}

// swapOpCycleBounds returns a copy of payload with the first two bucket
// bounds of a sim.op.cycles histogram swapped in place: CRC-valid once
// stored, every length intact, but the bounds no longer ascend.
func swapOpCycleBounds(t testing.TB, payload []byte) []byte {
	t.Helper()
	_, reg, err := decodeBlob(Job{}, payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name != "sim.op.cycles" || len(h.Buckets) <= 2 {
			continue
		}
		var bounds [16]byte
		for i, b := range h.Buckets[:2] {
			v, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(bounds[8*i:], math.Float64bits(v))
		}
		at := bytes.Index(payload, bounds[:])
		if at < 0 {
			t.Fatal("histogram bounds not found in the payload")
		}
		bad := bytes.Clone(payload)
		copy(bad[at:], bounds[8:])
		copy(bad[at+8:], bounds[:8])
		return bad
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

// zooJobs lists the 48-cell zoo grid: every catalogue workload × arch ×
// mb {1,2,4} × eval/train.
func zooJobs(t testing.TB) []Job {
	t.Helper()
	jobs, err := Grid{
		Workloads:   Workloads(),
		Archs:       Archs(),
		Minibatches: []int{1, 2, 4},
		Modes:       []string{"eval", "train"},
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestBlobRoundTripZoo: for every zoo cell, the registry decoded from its
// blob snapshots byte-identically to the live registry, the Result comes
// back unchanged, and decoding then re-encoding reproduces the blob.
func TestBlobRoundTripZoo(t *testing.T) {
	for _, job := range zooJobs(t) {
		reg := telemetry.NewRegistry()
		r, err := runJob(job, reg, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		blob := encodeBlob(r, reg)
		got, decoded, err := decodeBlob(job, blob)
		if err != nil {
			t.Fatalf("%s: %v", job.Name(), err)
		}
		if got != r {
			t.Errorf("%s: decoded result %+v, want %+v", job.Name(), got, r)
		}
		live, _ := json.Marshal(reg.Snapshot())
		back, _ := json.Marshal(decoded.Snapshot())
		if !bytes.Equal(live, back) {
			t.Errorf("%s: decoded snapshot differs from the live one:\n%s\n%s", job.Name(), back, live)
		}
		if again := encodeBlob(got, decoded); !bytes.Equal(again, blob) {
			t.Errorf("%s: re-encoding differs (%d vs %d bytes)", job.Name(), len(again), len(blob))
		}
	}
}

// malformedBlobs derives framing-valid but malformed payloads from a real
// blob: each shape the decoder's length checks must turn into an error.
func malformedBlobs(t testing.TB, r Result, blob []byte) map[string][]byte {
	t.Helper()
	// The metrics half starts where a blob with an empty registry (three
	// zero section counts) would end; it opens with the counter count,
	// followed by the first counter's name length.
	counts := len(encodeBlob(r, telemetry.NewRegistry())) - 3
	_, n := binary.Uvarint(blob[counts:])
	name := counts + n
	_, m := binary.Uvarint(blob[name:])
	splice := func(at, width int, v uint64) []byte {
		out := append([]byte(nil), blob[:at]...)
		out = binary.AppendUvarint(out, v)
		return append(out, blob[at+width:]...)
	}
	past := uint64(len(blob))
	return map[string][]byte{
		"measurements cut":   blob[:counts-1],
		"metrics cut":        blob[:len(blob)/2],
		"series count":       splice(counts, n, past),
		"string length":      splice(name, m, past),
		"huge string length": splice(name, m, 1<<62),
		"trailing byte":      append(bytes.Clone(blob), 0),
	}
}

// TestDecodeBlobRejectsMalformed: every strict prefix of a real zoo blob,
// a series count or string length that points past the end, and trailing
// bytes each make decodeBlob return an error, never panic.
func TestDecodeBlobRejectsMalformed(t *testing.T) {
	job := Job{Workload: "minivgg", Arch: "half", Minibatch: 2, Mode: "train", Iters: 1}
	reg := telemetry.NewRegistry()
	r, err := runJob(job, reg, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	blob := encodeBlob(r, reg)
	for i := range blob {
		if _, _, err := decodeBlob(job, blob[:i]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte blob accepted", i, len(blob))
		}
	}
	for name, bad := range malformedBlobs(t, r, blob) {
		if _, _, err := decodeBlob(job, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestStoreMalformedBlobQuarantined plants each malformed payload under a
// live key: the sweep must quarantine it and re-simulate the cell, with
// results and merged metrics equal to the cold run's.
func TestStoreMalformedBlobQuarantined(t *testing.T) {
	g := Grid{Workloads: []string{"simnet"}, Archs: []string{"baseline"},
		Minibatches: []int{1}, Modes: []string{"eval"}}
	ctx := context.Background()
	dir := t.TempDir()
	s := openStore(t, dir)
	coldReg := telemetry.NewRegistry()
	coldResults, err := RunGrid(ctx, g, Options{Store: s, Metrics: coldReg})
	if err != nil {
		t.Fatal(err)
	}
	coldSnap, _ := json.Marshal(coldReg.Snapshot())
	keys := s.Keys()
	if len(keys) != 1 {
		t.Fatalf("want 1 blob, got %d", len(keys))
	}
	blob, ok, err := s.Get(keys[0])
	if err != nil || !ok {
		t.Fatal("stored key vanished")
	}
	quarantined := filepath.Join(dir, "quarantine", keys[0])
	for name, bad := range malformedBlobs(t, coldResults[0], blob) {
		if err := s.Put(keys[0], bad); err != nil {
			t.Fatal(err)
		}
		os.Remove(quarantined)
		puts := s.Stats().Puts
		reg := telemetry.NewRegistry()
		results, err := RunGrid(ctx, g, Options{Store: s, Metrics: reg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := os.Stat(quarantined); err != nil {
			t.Errorf("%s: blob not quarantined: %v", name, err)
		}
		if st := s.Stats(); st.Puts != puts+1 {
			t.Errorf("%s: %d puts, want the cell re-simulated and stored once", name, st.Puts-puts)
		}
		if !reflect.DeepEqual(coldResults, results) {
			t.Errorf("%s: re-simulated results differ from the cold run", name)
		}
		if snap, _ := json.Marshal(reg.Snapshot()); !bytes.Equal(coldSnap, snap) {
			t.Errorf("%s: merged metrics differ from the cold run", name)
		}
		if stored, _, _ := s.Get(keys[0]); !bytes.Equal(stored, blob) {
			t.Errorf("%s: the re-simulated blob differs from the original", name)
		}
	}
}

// TestStoreKeyCachedSignatures: storeKey, which reads signatures from the
// once-per-process catalogue table, derives the same key as signatures
// built fresh, for every catalogue workload × arch.
func TestStoreKeyCachedSignatures(t *testing.T) {
	for _, w := range Workloads() {
		net, err := buildWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		topo := topologySignature(net)
		for _, a := range Archs() {
			chip, prec, err := chipFor(a)
			if err != nil {
				t.Fatal(err)
			}
			job := Job{Workload: w, Arch: a, Minibatch: 2, Mode: "train", Iters: 3}
			got, err := storeKey(job)
			if err != nil {
				t.Fatal(err)
			}
			if want := keyFor(topo, archSignature(chip, prec), job.cellKey()); got != want {
				t.Errorf("%s: cached-signature key %s, fresh %s", job.Name(), got, want)
			}
		}
	}
	if _, err := storeKey(Job{Workload: "nosuchnet", Arch: "baseline", Minibatch: 1, Mode: "eval"}); err == nil {
		t.Error("unknown workload got a key")
	}
	if _, err := storeKey(Job{Workload: "simnet", Arch: "nosucharch", Minibatch: 1, Mode: "eval"}); err == nil {
		t.Error("unknown arch got a key")
	}
}

// TestStoreKeyPinned pins one cell's key. A change here changes every key,
// so every existing store re-simulates each cell once: bump storeSchema (or
// change what the key hashes) on purpose, then update the constant.
func TestStoreKeyPinned(t *testing.T) {
	const want = "47be657655068f27b10fb3c67301e705a800c3db3040057a516500aed528d4d7"
	got, err := storeKey(Job{Workload: "simnet", Arch: "baseline", Minibatch: 1, Mode: "eval", Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("simnet/baseline/mb1/eval key %s, pinned %s", got, want)
	}
}
