package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"runtime"
	"sort"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/isa"
	"scaledeep/internal/telemetry"
)

// zoo48ProgramsSHA256 is the digest of every zoo48 cell's compiled programs,
// layer tags and tracker manifest (see programsDigest). Cycles and
// instruction counts are pinned by zoo48.golden.csv; this pins the program
// text itself, which can change without moving a cycle: arming is
// idempotent and the manifest pre-arms every tracker, so a reordered
// DMAMEMTRACK block is invisible to the simulator. A deliberate change to
// code generation updates it.
const zoo48ProgramsSHA256 = "665dc14dba808a42cca44e4a7d2411500fc73a1f9f964e5de089465b07652d09"

// TestCompiledProgramsPinned compiles every zoo48 cell exactly as runJob
// does and compares the digest of the result with the pinned one.
func TestCompiledProgramsPinned(t *testing.T) {
	if got := gridProgramsDigest(t, zoo48Grid(), false); got != zoo48ProgramsSHA256 {
		t.Fatalf("zoo48 programs digest %s, pinned %s", got, zoo48ProgramsSHA256)
	}
}

// Digests of programs past zoo48's minibatches (see
// TestColdSweepProgramsPinned): coldSweepProgramsSHA256 for coldSweepGrid
// compiled as runJob compiles it, and offChipProgramsSHA256 for the same
// grid at three training iterations with every layer's weights off-chip.
const (
	coldSweepProgramsSHA256 = "11818824b13fdda8ab169d811fe2a002359c6703bf619bc95b223e703d3df588"
	offChipProgramsSHA256   = "ff20f5414d39b8f954fe6bf8c0a89b7947922bb05b5c48cc2e1c9f95a7bcd684"
)

// coldSweepGrid is 96 cells in cold-sweep's range: every catalogue workload
// × arch × mb {1,2,3,7,16,24} × eval/train. Odd minibatches and ones past
// zoo48's 4 put many images in each per-image section.
func coldSweepGrid() Grid {
	return Grid{
		Workloads:   Workloads(),
		Archs:       Archs(),
		Minibatches: []int{1, 2, 3, 7, 16, 24},
		Modes:       []string{"eval", "train"},
	}
}

// TestColdSweepProgramsPinned pins the programs, layer tags and tracker
// manifests of coldSweepGrid, as runJob compiles them and again with
// off-chip weights at three training iterations.
func TestColdSweepProgramsPinned(t *testing.T) {
	if got := gridProgramsDigest(t, coldSweepGrid(), false); got != coldSweepProgramsSHA256 {
		t.Errorf("cold-sweep programs digest %s, pinned %s", got, coldSweepProgramsSHA256)
	}
	offChip := coldSweepGrid()
	offChip.Iterations = 3
	if got := gridProgramsDigest(t, offChip, true); got != offChipProgramsSHA256 {
		t.Errorf("off-chip programs digest %s, pinned %s", got, offChipProgramsSHA256)
	}
}

// gridProgramsDigest compiles every job of g as runJob does, with the
// weights off-chip when offChip is set, and returns the hex digest of each
// job's name followed by its programsDigest.
func gridProgramsDigest(t *testing.T, g Grid, offChip bool) string {
	t.Helper()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, job := range jobs {
		c, _, _, _ := compileJob(t, job, offChip)
		writeString(h, job.Name())
		programsDigest(h, c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compileJob compiles job as runJob does, with the weights off-chip when
// offChip is set, and returns the result with its network, chip and
// datapath precision.
func compileJob(t *testing.T, job Job, offChip bool) (*compiler.Compiled, *dnn.Network, arch.ChipConfig, arch.Precision) {
	t.Helper()
	net, err := buildWorkload(job.Workload)
	if err != nil {
		t.Fatal(err)
	}
	chip, prec, err := chipFor(job.Arch)
	if err != nil {
		t.Fatal(err)
	}
	train := job.Mode == "train"
	iters := 1
	if train {
		iters = job.Iters
	}
	c, err := compiler.Compile(net, chip, compiler.Options{
		Minibatch: job.Minibatch, Iterations: iters, Training: train, LR: 0.0625,
		WeightsOffChip: offChip,
	})
	if err != nil {
		t.Fatalf("%s: %v", job.Name(), err)
	}
	return c, net, chip, prec
}

// zoo48Grid is the 48-cell zoo: every catalogue workload × arch × mb
// {1,2,4} × eval/train.
func zoo48Grid() Grid {
	return Grid{
		Workloads:   Workloads(),
		Archs:       Archs(),
		Minibatches: []int{1, 2, 4},
		Modes:       []string{"eval", "train"},
	}
}

// zoo48MetricsSHA256 is the digest of the zoo48 grid's merged metrics
// registry as Registry.WriteJSON renders it (21,382 bytes), and
// zoo48BlobsSHA256 the digest of every zoo48 cell's store blob in job
// order, each length-prefixed (104,532 payload bytes). zoo48.golden.csv
// pins results and TestStoreKeyPinned pins keys; these pin the bytes the
// simulator's metric publishing writes into -metrics-out files, /metrics
// scrapes and the store.
const (
	zoo48MetricsSHA256 = "58fd11654de3cade00621dba12eca112cf3bb1ceb1b14389a301674da460606b"
	zoo48BlobsSHA256   = "02b59a8073338f9fce7a7ffd9d411afeb98f9c87d85908f7b8a7ac818664ec63"
)

// TestZooMetricsPinned runs the zoo48 grid with a metrics registry at one
// and two workers, and every zoo48 cell on its own through runJob and
// encodeBlob, and compares both digests with the pinned ones.
func TestZooMetricsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; the compiler may fuse multiply-adds on %s, which moves checksums", runtime.GOARCH)
	}
	for _, workers := range []int{1, 2} {
		widenBudget(t, workers)
		reg := telemetry.NewRegistry()
		if _, err := RunGrid(context.Background(), zoo48Grid(), Options{Workers: workers, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != zoo48MetricsSHA256 {
			t.Errorf("workers=%d: zoo48 metrics digest %s (%d bytes), pinned %s", workers, got, buf.Len(), zoo48MetricsSHA256)
		}
	}

	jobs, err := zoo48Grid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, job := range jobs {
		reg := telemetry.NewRegistry()
		r, err := runJob(job, reg, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		blob := encodeBlob(r, reg)
		writeInt(h, int64(len(blob)))
		h.Write(blob)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != zoo48BlobsSHA256 {
		t.Errorf("zoo48 blobs digest %s, pinned %s", got, zoo48BlobsSHA256)
	}
}

// programsDigest writes one compiled cell into h: its programs in tile-name
// order (name, encoded instructions, layer tags, both of the stream the
// program runs), then its tracker manifest in manifest order. Every
// variable-length field is length-prefixed.
func programsDigest(h hash.Hash, c *compiler.Compiled) {
	type tile struct {
		prog *isa.Program
		tags []int
	}
	tiles := make([]tile, 0, len(c.Programs))
	for k, p := range c.Programs {
		tiles = append(tiles, tile{p, c.LayerTags[k]})
	}
	sort.Slice(tiles, func(i, j int) bool { return tiles[i].prog.Tile < tiles[j].prog.Tile })
	writeInt(h, int64(len(tiles)))
	for _, tl := range tiles {
		writeString(h, tl.prog.Tile)
		code := isa.EncodeProgram(tl.prog)
		writeInt(h, int64(len(code)))
		h.Write(code)
		writeInt(h, int64(tl.prog.Len()))
		for pc := range tl.prog.Len() {
			idx, _ := tl.prog.Locate(pc)
			writeInt(h, int64(tl.tags[idx]))
		}
	}
	writeInt(h, int64(len(c.Trackers)))
	for _, s := range c.Trackers {
		pre := int64(0)
		if s.Preloaded {
			pre = 1
		}
		for _, v := range []int64{int64(s.MemTile), s.Addr, s.Size, int64(s.NumUpdates), int64(s.NumReads), pre} {
			writeInt(h, v)
		}
	}
}

func writeInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func writeString(h hash.Hash, s string) {
	writeInt(h, int64(len(s)))
	h.Write([]byte(s))
}
