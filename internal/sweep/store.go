package sweep

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
)

// This file is the sweep side of the result store: it maps a grid cell to
// a content-addressed store key and a serialized blob, so a sweep consults
// the store's in-process map, then disk, and only then simulates. Soundness
// follows DESIGN.md §5f: a key pins everything a cell's result depends on —
// the full workload topology (not just its catalog name), the chip
// configuration and precision, the run constants baked into runJob, the
// minibatch, mode and normalized iterations, plus a schema version and a
// Go-struct layout hash so blobs written by an incompatible binary become
// misses instead of being decoded into the wrong fields.

// storeSchema is bumped on any change to the blob layout or the meaning of
// its fields.
const storeSchema = 4 // v4: binary blobs replace JSON

// runnerSig names the constants runJob bakes into every simulation: the
// input/golden PRNG seed, the learning rate and the bias policy. Changing
// any of them changes results, so it must change this string too.
const runnerSig = "runJob/v1 seed=7 lr=0.0625 nobias"

// storeLayout fingerprints the Go shape of the result a blob carries.
var storeLayout = store.LayoutHash(Result{})

// storeKey derives the content-addressed key for a grid cell. It hashes the
// workload's full topology, not just its catalog name, so editing a catalog
// network invalidates its cached results even though the name is unchanged.
func storeKey(job Job) (string, error) {
	k := job.cellKey()
	topo, archSig, err := signatures(k)
	if err != nil {
		return "", err
	}
	return keyFor(topo, archSig, k), nil
}

// keyFor derives a cell's store key from its topology and arch signatures.
func keyFor(topo, archSig string, k cellKey) string {
	return store.NewKey().
		Int("schema", storeSchema).
		Str("layout", storeLayout).
		Str("runner", runnerSig).
		Str("topology", topo).
		Str("arch", archSig).
		Int("minibatch", int64(k.Minibatch)).
		Str("mode", k.Mode).
		Int("iters", int64(k.Iters)).
		Sum()
}

// catalogueSigs holds the topology signature of every catalogue workload
// and the signature of every arch, by lowercase name. The catalogue is
// compiled into the binary, so they are computed once per process; a key
// still hashes the full strings, so a binary with an edited network or chip
// writes different keys.
var catalogueSigs = sync.OnceValue(func() (sigs struct{ topology, arch map[string]string }) {
	sigs.topology = map[string]string{}
	for _, w := range Workloads() {
		if net, err := BuildWorkload(w); err == nil {
			sigs.topology[w] = topologySignature(net)
		}
	}
	sigs.arch = map[string]string{}
	for _, a := range Archs() {
		if chip, prec, err := ArchFor(a); err == nil {
			sigs.arch[a] = archSignature(chip, prec)
		}
	}
	return sigs
})

// signatures returns the topology and arch signatures a cell's key hashes:
// from catalogueSigs for catalogue names, built fresh for any other name
// (which reports it as unknown).
func signatures(k cellKey) (topo, archSig string, err error) {
	sigs := catalogueSigs()
	topo, ok := sigs.topology[k.Workload]
	if !ok {
		net, err := BuildWorkload(k.Workload)
		if err != nil {
			return "", "", err
		}
		topo = topologySignature(net)
	}
	archSig, ok = sigs.arch[k.Arch]
	if !ok {
		chip, prec, err := ArchFor(k.Arch)
		if err != nil {
			return "", "", err
		}
		archSig = archSignature(chip, prec)
	}
	return topo, archSig, nil
}

// topologySignature serializes a network's full layer graph — kinds,
// names, wiring, parameters and inferred shapes — into a deterministic
// string.
func topologySignature(net *dnn.Network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "net %s layers=%d;", net.Name, len(net.Layers))
	for _, l := range net.Layers {
		fmt.Fprintf(&b, "[%d %s kind=%s in=%v outch=%d conv=%+v groups=%d pool=%+v fc=%d shared=%d slice=%d act=%d %v->%v]",
			l.Index, l.Name, l.Kind, l.Inputs, l.OutChannels, l.ConvP, l.Groups,
			l.PoolP, l.OutNeurons, l.SharedWith, l.SliceFrom, l.Act, l.In, l.Out)
	}
	return b.String()
}

// archSignature serializes the chip configuration and datapath precision.
func archSignature(chip arch.ChipConfig, prec arch.Precision) string {
	return fmt.Sprintf("chip=%+v prec=%s", chip, prec)
}

// encodeBlob serializes a cell result and its telemetry registry: the
// schema as a uvarint, then Result's measurements in field order — integers
// as varints, PEUtil as float64 bits and Checksum as float32 bits, both
// little-endian — then the registry in telemetry's binary form
// (Registry.AppendEncoding). The encoding is a deterministic function of
// its inputs, which is what lets verify-on-hit byte-compare a stored blob
// against a fresh re-simulation.
func encodeBlob(r Result, reg *telemetry.Registry) []byte {
	b := make([]byte, 0, 3<<10) // a zoo cell's blob takes 1.8–2.5 KB
	b = binary.AppendUvarint(b, storeSchema)
	for _, v := range [...]int64{r.Cycles, r.Instructions, r.FLOPs} {
		b = binary.AppendVarint(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.PEUtil))
	for _, v := range [...]int64{r.CompMemBytes, r.MemMemBytes, r.ExtMemBytes, r.NACKs} {
		b = binary.AppendVarint(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(r.Checksum))
	for _, v := range [...]int64{r.AttrCompute, r.AttrDMAWait, r.AttrTracker, r.AttrLink, r.AttrOther} {
		b = binary.AppendVarint(b, v)
	}
	return reg.AppendEncoding(b)
}

// decodeBlob deserializes a stored cell result for job, rehydrating the
// cell's telemetry registry. Errors mean the payload passed the store's
// framing checks but is not a blob this binary wrote — callers treat that
// as a miss and quarantine the key.
func decodeBlob(job Job, payload []byte) (Result, *telemetry.Registry, error) {
	fail := func(err error) (Result, *telemetry.Registry, error) {
		return Result{}, nil, fmt.Errorf("sweep: stored blob for %s: %w", job.Name(), err)
	}
	b, bad := payload, false
	varint := func() int64 {
		v, n := binary.Varint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return v
	}
	bits := func(size int) uint64 { // little-endian
		if len(b) < size {
			bad = true
			return 0
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		b = b[size:]
		return v
	}
	schema, n := binary.Uvarint(b)
	if n <= 0 || schema != storeSchema {
		return fail(fmt.Errorf("schema %d != %d", schema, storeSchema))
	}
	b = b[n:]
	r := Result{
		Job: job,
		// The store holds exact measurements only (predicted cells are
		// never written back), so every replay is exact by construction.
		Source: SourceExact,
	}
	r.Cycles, r.Instructions, r.FLOPs = varint(), varint(), varint()
	r.PEUtil = math.Float64frombits(bits(8))
	r.CompMemBytes, r.MemMemBytes, r.ExtMemBytes, r.NACKs = varint(), varint(), varint(), varint()
	r.Checksum = math.Float32frombits(uint32(bits(4)))
	r.AttrCompute, r.AttrDMAWait, r.AttrTracker, r.AttrLink, r.AttrOther = varint(), varint(), varint(), varint(), varint()
	if bad {
		return fail(fmt.Errorf("measurements truncated or malformed"))
	}
	reg, err := telemetry.DecodeRegistry(b)
	if err != nil {
		return fail(err)
	}
	return r, reg, nil
}

// auditHit decides deterministically whether a hit on key is re-simulated
// under Options.VerifyStore. Keying the decision on the key itself (first
// hex nibble in 0..3, a 1-in-4 sample) makes the audited subset identical
// across runs and worker counts.
func auditHit(key string) bool {
	return len(key) > 0 && key[0] >= '0' && key[0] <= '3'
}

// verifyStoredHit re-simulates an audited cell from scratch and
// byte-compares the re-encoded blob against the stored payload, keeping the
// exact simulator the oracle for bytes read back from disk. Any difference
// means the key admitted a computation that is not actually equivalent (or
// the blob was silently altered without breaking its CRC), and fails the
// sweep.
func verifyStoredHit(job Job, key string, payload []byte) error {
	reg := telemetry.NewRegistry()
	r, err := runJob(job, reg, telemetry.TraceContext{})
	if err != nil {
		return fmt.Errorf("sweep: store verify of %s: %w", job.Name(), err)
	}
	fresh := encodeBlob(r, reg)
	if !bytes.Equal(fresh, payload) {
		return fmt.Errorf("sweep: store verification failed for %s (key %s): stored blob differs from fresh re-simulation (%d vs %d bytes)",
			job.Name(), key[:16], len(payload), len(fresh))
	}
	return nil
}
