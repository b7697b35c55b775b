package compiler

import (
	"fmt"
	"slices"
	"strconv"

	"scaledeep/internal/isa"
	"scaledeep/internal/sim"
)

// This file provides the code-generation substrate: a per-tile scratchpad
// allocator, an instruction emitter, and an access ledger from which the
// data-flow tracker manifest (§3.2.4) is derived automatically — each
// tracked range's NumUpdates/NumReads are counted from the ops the generator
// actually emitted, so the synchronization contract cannot drift from the
// code.

// regionKind selects the tracker-generation policy of a region.
type regionKind int

const (
	kindData    regionKind = iota // data regions (features, errors, staging)
	kindWeight                    // per-iteration generation, preloaded
	kindGrad                      // per-iteration generation (weight gradients)
	kindPartial                   // fine-grained generations (partial sums)
	kindBarrier                   // iteration barrier token
)

// region is an allocated scratchpad range on one MemHeavy tile.
type region struct {
	tile int // absolute MemHeavy tile index (ABI: index = MCol*Rows + Row)
	addr int64
	size int64
	name string // base name; label adds a per-image copy's image index
	kind regionKind
	// img is the image index of a per-image feature or error copy, and -1
	// for a region every image shares. stride is the distance from a
	// per-image copy to the next image's (0 when shared), so image i's copy
	// of an image-0 region r sits at r.addr + i*r.stride. img0 is image 0's
	// copy, set on the copies of images 1…mb−1.
	img    int
	stride int64
	img0   *region
	// gens is the number of tracker generations per training iteration
	// (1 for per-image feature copies, #batches×M for partial sums, M for
	// shared staging buffers).
	gens int

	// access ledger
	tiles          []progKey  // distinct comp tiles touching the region
	tiles0         [2]progKey // tiles' backing while it holds at most two
	imgReads       int        // reads emitted in the per-image section
	imgWrites      int
	batchReads     int // reads emitted in the per-batch section
	batchWrites    int
	prologueWrites int
}

// allocator hands out scratchpad ranges per MemHeavy tile. An allocation
// past a tile's capacity does not stop generation: the first one is kept in
// err, which Compile returns, so an oversized spec is an ordinary error.
type allocator struct {
	rows     int
	capacity int64
	next     []int64
	regions  []*region
	err      error
}

func newAllocator(rows, totalMemTiles int, capacityElems int64) *allocator {
	return &allocator{rows: rows, capacity: capacityElems, next: make([]int64, totalMemTiles)}
}

// tileIndex maps a TileCoord to the ABI MemHeavy tile index.
func (a *allocator) tileIndex(tc TileCoord) int { return tc.MCol*a.rows + tc.Row }

// alloc allocates a region shared by every image.
func (a *allocator) alloc(tc TileCoord, size int64, name string, kind regionKind) *region {
	return a.place(tc, &region{size: size, name: name, kind: kind, img: -1})
}

// allocImages allocates one unit's per-image data regions on tile tc,
// image after image: each image's copy of every name in turn, size
// elements each, so each copy sits one stride (len(names)*size) past the
// previous image's. It returns the copies, image 0's first: the ones the
// template addresses. The copies share one array sized by what still fits
// on the tile: every image that fits, and the first that does not, whose
// placement records the over-capacity error that stops binding. So a
// minibatch far past the tile costs what binding up to that image costs.
func (a *allocator) allocImages(tc TileCoord, size int64, mb int, names ...string) []region {
	if a.err != nil {
		return nil
	}
	stride := int64(len(names)) * size
	n := mb
	if free := a.capacity - a.next[a.tileIndex(tc)]; stride > 0 && free/stride < int64(n) {
		n = int(free/stride) + 1
	}
	copies := make([]region, n*len(names))
	for i := range copies {
		r := &copies[i]
		*r = region{size: size, name: names[i%len(names)], kind: kindData, img: i / len(names), stride: stride}
		if r.img > 0 {
			r.img0 = &copies[i%len(names)]
		}
		a.place(tc, r)
	}
	return copies
}

// place puts r at the next free address of tile tc.
func (a *allocator) place(tc TileCoord, r *region) *region {
	t := a.tileIndex(tc)
	if a.next[t]+r.size > a.capacity && a.err == nil {
		a.err = fmt.Errorf("compiler: MemHeavy tile (r%d,m%d) over capacity: %d + %d > %d (%s)",
			tc.Row, tc.MCol, a.next[t], r.size, a.capacity, r.label())
	}
	r.tile, r.addr = t, a.next[t]
	r.tiles = r.tiles0[:0]
	a.next[t] += r.size
	a.regions = append(a.regions, r)
	return r
}

// label names the region for an error: its base name, plus ".i<img>" for
// a per-image copy ("c1.feat0.i910").
func (r *region) label() string {
	if r.img < 0 {
		return r.name
	}
	return r.name + ".i" + strconv.Itoa(r.img)
}

// section marks which program phase ops are being emitted in.
type section int

const (
	secPrologue section = iota
	// secIter is the per-image section: image 0's ops, which finalize
	// repeats for every image of the minibatch in the per-iteration body.
	secIter
	secBatch
)

// progKey identifies one CompHeavy tile's program.
type progKey struct {
	Row, CCol int
	Step      sim.Step
}

// Reserved registers of the generated calling convention.
const (
	regIter    isa.Reg = 1 // training-iteration counter
	regScratch         = 8 // first scratch register for operand staging
)

// opr is an instruction operand: image 0's value, and the stride by which
// it steps from one image to the next (0 for an operand every image shares).
type opr struct {
	val    int64
	stride int64
}

// C makes a constant operand.
func C(v int64) opr { return opr{val: v} }

// A addresses offset off within region r: a per-image region's address
// steps to each image's copy.
func A(r *region, off int64) opr { return opr{val: r.addr + off, stride: r.stride} }

// Ext makes the external-memory address of image 0's data at addr, where
// each image's data follows the previous image's after stride elements.
func Ext(addr, stride int64) opr { return opr{val: addr, stride: stride} }

// tileProgram accumulates one tile's instructions per section, with each
// section's layer tags (network layer index, or untaggedLayer for
// control/synchronization scaffolding) as runs.
type tileProgram struct {
	prologue []isa.Instr
	image    []isa.Instr // image 0's ops
	batch    []isa.Instr

	prologueTags []tagRun
	imageTags    []tagRun
	batchTags    []tagRun

	// rebase lists the LDRIs of image that stage a per-image operand: image
	// i's copy of instruction pc loads its immediate plus i*stride. They
	// become the strides of the program's repeated section.
	rebase []rebase

	// arming holds the tile's DMAMEMTRACK blocks (armBlockLen instructions
	// each) in arming order; finalize lays them down ahead of the prologue,
	// last armed first.
	arming []isa.Instr
}

// untaggedLayer marks instructions that belong to no network layer (loop
// control, barriers, tracker arming).
const untaggedLayer = -1

// tagRun tags a run of a section's instructions with one layer: those from
// pc up to the next run's pc, or to the end of the section.
type tagRun struct {
	pc    int
	layer int
}

// appendTags appends the per-instruction layer tags of an n-instruction
// section, given its runs, to tags.
func appendTags(tags []int, runs []tagRun, n int) []int {
	for i, r := range runs {
		end := n
		if i+1 < len(runs) {
			end = runs[i+1].pc
		}
		for range end - r.pc {
			tags = append(tags, r.layer)
		}
	}
	return tags
}

// rebase is one per-image LDRI of a tile's image section.
type rebase struct {
	pc     int
	stride int64
}

// emitter builds all tile programs and the access ledger.
type emitter struct {
	alloc  *allocator
	images int // minibatch images per iteration
	progs  map[progKey]*tileProgram
	sec    section
	layer  int // layer tag applied to emitted instructions

	// argSlab is the current chunk instructions' Args are carved from (see
	// args).
	argSlab []isa.Reg
}

// argSlabLen is how many argument registers share one allocation.
const argSlabLen = 8192

// args returns an n-register argument list carved from the compile's slab.
// Programs keep their instructions' Args, so a filled chunk is never reused:
// the next list starts a fresh one. Each list is capacity-capped, so an
// append to one cannot overwrite its neighbour.
func (e *emitter) args(n int) []isa.Reg {
	if cap(e.argSlab)-len(e.argSlab) < n {
		e.argSlab = make([]isa.Reg, 0, max(argSlabLen, n))
	}
	i := len(e.argSlab)
	e.argSlab = e.argSlab[:i+n]
	return e.argSlab[i : i+n : i+n]
}

func newEmitter(a *allocator, images int) *emitter {
	return &emitter{alloc: a, images: images, progs: map[progKey]*tileProgram{}, layer: untaggedLayer}
}

// setLayer switches the layer tag for subsequently emitted instructions.
func (e *emitter) setLayer(idx int) { e.layer = idx }

func (e *emitter) at(k progKey) *tileProgram {
	tp := e.progs[k]
	if tp == nil {
		tp = &tileProgram{}
		e.progs[k] = tp
	}
	return tp
}

// bufs returns the tile's instruction buffer for section sec and its
// layer-tag runs.
func (tp *tileProgram) bufs(sec section) (*[]isa.Instr, *[]tagRun) {
	switch sec {
	case secPrologue:
		return &tp.prologue, &tp.prologueTags
	case secIter:
		return &tp.image, &tp.imageTags
	default:
		return &tp.batch, &tp.batchTags
	}
}

// touch records an access in the ledger.
func (e *emitter) touch(k progKey, r *region, write bool) {
	if r == nil {
		return
	}
	if !slices.Contains(r.tiles, k) {
		r.tiles = append(r.tiles, k)
	}
	switch e.sec {
	case secIter:
		if write {
			r.imgWrites++
		} else {
			r.imgReads++
		}
	case secBatch:
		if write {
			r.batchWrites++
		} else {
			r.batchReads++
		}
	case secPrologue:
		if write {
			r.prologueWrites++
		}
	}
}

// rd / wr annotate an op's region accesses for the ledger; an access to a
// nil region (untracked memory) records nothing.
type regAccess struct {
	r     *region
	write bool
}

func rd(r *region) regAccess { return regAccess{r: r} }
func wr(r *region) regAccess { return regAccess{r: r, write: true} }

// op emits one coarse/offload/transfer/track instruction on tile k, staging
// its operands through scratch registers, and records its accesses. A
// per-image operand must fit the immediate range at every image, and its
// LDRI and stride are recorded for finalize's repeated section.
func (e *emitter) op(k progKey, opcode isa.Opcode, operands []opr, accs ...regAccess) {
	if regScratch+len(operands) >= isa.NumRegs {
		panic("compiler: out of scratch registers")
	}
	tp := e.at(k)
	buf, tags := tp.bufs(e.sec)
	if n := len(*tags); n == 0 || (*tags)[n-1].layer != e.layer {
		*tags = append(*tags, tagRun{pc: len(*buf), layer: e.layer})
	}
	regs := e.args(len(operands))
	for i, o := range operands {
		for _, v := range [2]int64{o.val, o.val + int64(e.images-1)*o.stride} {
			if v > 1<<31-1 || v < -(1<<31) {
				panic(fmt.Sprintf("compiler: operand %d exceeds immediate range", v))
			}
		}
		if o.stride != 0 {
			if e.sec != secIter {
				panic("compiler: per-image operand outside the per-image section")
			}
			if e.images > 1 {
				tp.rebase = append(tp.rebase, rebase{pc: len(*buf), stride: o.stride})
			}
		}
		regs[i] = regScratch + isa.Reg(i)
		*buf = append(*buf, isa.Ldri(regs[i], int32(o.val)))
	}
	*buf = append(*buf, isa.WithArgs(opcode, regs...))
	for _, a := range accs {
		e.touch(k, a.r, a.write)
	}
}

// replicateImages extends image 0's ledger to the whole minibatch, which
// makes the same accesses image by image: every per-image region of a
// later image takes its image-0 sibling's tiles and per-image counts, and
// every shared region's per-image counts are multiplied by the minibatch.
// Nothing touches a per-image region after the template, so the siblings
// can share one tiles slice.
func (e *emitter) replicateImages() {
	for _, r := range e.alloc.regions {
		switch {
		case r.img0 != nil:
			r.tiles = r.img0.tiles
			r.imgReads, r.imgWrites = r.img0.imgReads, r.img0.imgWrites
		case r.img < 0:
			r.imgReads *= e.images
			r.imgWrites *= e.images
		}
	}
}

// finalize assembles each tile's program:
//
//	arming blocks, last armed first
//	prologue
//	LDRI iter
//	iterLoop: <image 0's section, repeated once per image: copy i's
//	          per-image LDRIs load their image-0 immediate + i*stride>
//	<batch section: weight update + iteration barrier>
//	dec iter; BGTZ iterLoop; HALT
//
// into c.Programs, each image section stored once as the program's
// repeated section (isa.Repeat), and derives the tracker manifest
// (c.Trackers) from the ledger, plus a per-instruction layer-tag slice
// parallel to each program's stored instructions (c.LayerTags, the
// profiler's program→layer binding). The instructions, tags and strides
// of every program are carved from one array each.
func (e *emitter) finalize(iterations int, c *Compiled) error {
	// Derive trackers first: it also collects each tile's DMAMEMTRACK
	// arming blocks.
	specs, err := e.trackerManifest(iterations)
	if err != nil {
		return err
	}
	c.Trackers = specs
	c.Programs = make(map[progKey]*isa.Program, len(e.progs))
	c.LayerTags = make(map[progKey][]int, len(e.progs))
	size := func(tp *tileProgram) int {
		return len(tp.arming) + len(tp.prologue) + 1 + len(tp.image) + len(tp.batch) + 3
	}
	var total, strided int
	for _, tp := range e.progs {
		total += size(tp)
		if len(tp.rebase) > 0 {
			strided += len(tp.image)
		}
	}
	insSlab := make([]isa.Instr, 0, total)
	tagSlab := make([]int, 0, total)
	strideSlab := make([]int64, strided)
	for k, tp := range e.progs {
		n, at := size(tp), len(insSlab)
		ins, tags := insSlab[at:at:at+n], tagSlab[at:at:at+n]
		for end := len(tp.arming); end > 0; end -= armBlockLen {
			ins = append(ins, tp.arming[end-armBlockLen:end]...)
		}
		for range tp.arming {
			tags = append(tags, untaggedLayer)
		}
		ins = append(ins, tp.prologue...)
		tags = appendTags(tags, tp.prologueTags, len(tp.prologue))
		ins = append(ins, isa.Ldri(regIter, int32(iterations)))
		tags = append(tags, untaggedLayer)
		rep := isa.Repeat{Lo: len(ins), Len: len(tp.image), N: e.images}
		ins = append(ins, tp.image...)
		tags = appendTags(tags, tp.imageTags, len(tp.image))
		if len(tp.rebase) > 0 {
			rep.Stride, strideSlab = strideSlab[:rep.Len:rep.Len], strideSlab[rep.Len:]
			for _, rb := range tp.rebase {
				rep.Stride[rb.pc] = rb.stride
			}
		}
		ins = append(ins, tp.batch...)
		tags = appendTags(tags, tp.batchTags, len(tp.batch))
		ins = append(ins, isa.Subri(regIter, regIter, 1))
		// The branch offset counts pcs of the stream, where the section's
		// later copies sit between iterLoop and the branch.
		bgtz := len(ins) + (e.images-1)*rep.Len
		ins = append(ins, isa.Bgtz(regIter, int32(rep.Lo-(bgtz+1))))
		ins = append(ins, isa.Halt())
		tags = append(tags, untaggedLayer, untaggedLayer, untaggedLayer)
		if len(tags) != len(ins) || len(ins) != n {
			panic(fmt.Sprintf("compiler: program out of sync on %v: %d tags for %d instrs, %d expected",
				k, len(tags), len(ins), n))
		}
		insSlab, tagSlab = insSlab[:at+n], tagSlab[:at+n]
		c.Programs[k] = &isa.Program{
			Tile:   fmt.Sprintf("r%d.c%d.%s", k.Row, k.CCol, k.Step),
			Instrs: ins,
			Repeat: rep,
		}
		c.LayerTags[k] = tags
	}
	return nil
}

// trackerManifest derives one TrackerSpec per multi-tile region from the
// ledger. Single-tile regions need no tracker: program order within one
// tile's instruction stream already serializes their accesses. For ISA
// fidelity each tracked region also gets a DMAMEMTRACK instruction in the
// prologue of one touching tile (arming is idempotent; the manifest pre-arm
// exists so no data op can race the arming instruction, §3.2.4).
func (e *emitter) trackerManifest(iterations int) ([]sim.TrackerSpec, error) {
	var specs []sim.TrackerSpec
	for _, r := range e.alloc.regions {
		if len(r.tiles) <= 1 {
			continue
		}
		spec := sim.TrackerSpec{MemTile: r.tile, Addr: r.addr, Size: r.size}
		switch r.kind {
		case kindData, kindPartial:
			g := r.gens
			if g <= 0 {
				g = 1
			}
			if r.imgWrites%g != 0 || r.imgReads%g != 0 {
				panic(fmt.Sprintf("compiler: region %s has non-uniform generations (%dW %dR over %d gens)",
					r.label(), r.imgWrites, r.imgReads, g))
			}
			spec.NumUpdates = r.imgWrites / g
			spec.NumReads = r.imgReads / g
			if spec.NumUpdates == 0 || spec.NumReads == 0 {
				continue
			}
		case kindWeight:
			// Generation = iteration: 1 write (preload, then WUPDATE) and
			// every read of the iteration. The WUPDATE write is gated on the
			// reads draining, which is exactly the required ordering.
			// Weights nothing rewrites (evaluation) keep the preloaded
			// generation for the whole run: every iteration's reads.
			spec.NumUpdates = 1
			spec.NumReads = r.imgReads + r.batchReads
			if r.batchWrites == 0 {
				spec.NumReads *= iterations
			}
			spec.Preloaded = true
			if spec.NumReads == 0 {
				continue
			}
		case kindGrad:
			// Generation = iteration: boundary MEMSET + the iteration's
			// accumulations, then the WUPDATE read.
			spec.NumUpdates = r.batchWrites + r.imgWrites
			spec.NumReads = r.batchReads
			if spec.NumReads == 0 {
				continue
			}
		case kindBarrier:
			// Every program writes one token, then reads the full set: no
			// tile enters iteration k+1 before every tile finished k — the
			// minibatch-end weight distribution of §3.3.
			spec.NumUpdates = r.batchWrites
			spec.NumReads = r.batchReads
		}
		specs = append(specs, spec)
		if err := e.emitTrackInstr(r, spec); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// armBlockLen is the length of one tracker's arming block: five LDRIs
// staging its operands, then the DMAMEMTRACK.
const armBlockLen = 6

// emitTrackInstr adds a DMAMEMTRACK arming block for the region to its
// lowest-ordered touching tile. The block lands ahead of that tile's
// prologue at finalize. It fails if an operand does not fit the LDRI's
// 32-bit immediate.
func (e *emitter) emitTrackInstr(r *region, spec sim.TrackerSpec) error {
	best := r.tiles[0]
	for _, k := range r.tiles[1:] {
		if lessKey(k, best) {
			best = k
		}
	}
	tp := e.at(best)
	regs := e.args(armBlockLen - 1)
	vals := [armBlockLen - 1]int64{isa.AbsTile(spec.MemTile), spec.Addr, spec.Size, int64(spec.NumUpdates), int64(spec.NumReads)}
	for i, v := range vals {
		if v != int64(int32(v)) {
			return fmt.Errorf("compiler: tracker on %s: operand %d exceeds the 32-bit immediate", r.label(), v)
		}
		regs[i] = regScratch + isa.Reg(i)
		tp.arming = append(tp.arming, isa.Ldri(regs[i], int32(v)))
	}
	tp.arming = append(tp.arming, isa.WithArgs(isa.DMAMEMTRACK, regs...))
	return nil
}

func lessKey(a, b progKey) bool {
	if a.CCol != b.CCol {
		return a.CCol < b.CCol
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Step < b.Step
}
