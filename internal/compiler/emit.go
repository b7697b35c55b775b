package compiler

import (
	"fmt"

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
	name string
	kind regionKind
	// gens is the number of tracker generations per training iteration
	// (1 for per-image feature copies, #batches×M for partial sums, M for
	// shared staging buffers).
	gens int

	// access ledger
	tiles          map[progKey]bool // comp tiles touching the region
	imgReads       int              // reads emitted in the per-image section
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

func (a *allocator) alloc(tc TileCoord, size int64, name string, kind regionKind) *region {
	t := a.tileIndex(tc)
	if a.next[t]+size > a.capacity && a.err == nil {
		a.err = fmt.Errorf("compiler: MemHeavy tile (r%d,m%d) over capacity: %d + %d > %d (%s)",
			tc.Row, tc.MCol, a.next[t], size, a.capacity, name)
	}
	r := &region{tile: t, addr: a.next[t], size: size, name: name, kind: kind, tiles: map[progKey]bool{}}
	a.next[t] += size
	a.regions = append(a.regions, r)
	return r
}

// section marks which program phase ops are being emitted in.
type section int

const (
	secPrologue section = iota
	secIter             // per-iteration body: all minibatch images, unrolled
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
	regImg     isa.Reg = 2 // image counter within the minibatch
	regInOff   isa.Reg = 3 // external-memory offset of the current input image
	regGldOff  isa.Reg = 4 // external-memory offset of the current golden output
	regScratch         = 8 // first scratch register for operand staging
)

// opr is an instruction operand: either a compile-time constant or one of
// the reserved registers (used for per-image external-memory offsets).
type opr struct {
	val   int64
	reg   isa.Reg
	isReg bool
}

// C makes a constant operand.
func C(v int64) opr { return opr{val: v} }

// R makes a register operand.
func R(r isa.Reg) opr { return opr{reg: r, isReg: true} }

// tileProgram accumulates one tile's instructions per section, with a
// parallel per-instruction layer tag (network layer index, or untaggedLayer
// for control/synchronization scaffolding).
type tileProgram struct {
	prologue []isa.Instr
	image    []isa.Instr
	batch    []isa.Instr

	prologueTags []int
	imageTags    []int
	batchTags    []int

	// arming holds the tile's DMAMEMTRACK blocks (armBlockLen instructions
	// each) in arming order; finalize lays them down ahead of the prologue,
	// last armed first.
	arming []isa.Instr
}

// untaggedLayer marks instructions that belong to no network layer (loop
// control, barriers, tracker arming).
const untaggedLayer = -1

// emitter builds all tile programs and the access ledger.
type emitter struct {
	alloc *allocator
	progs map[progKey]*tileProgram
	sec   section
	layer int // layer tag applied to emitted instructions
}

func newEmitter(a *allocator) *emitter {
	return &emitter{alloc: a, progs: map[progKey]*tileProgram{}, layer: untaggedLayer}
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

// bufs returns tile k's instruction buffer for the current section and the
// layer-tag slice parallel to it.
func (e *emitter) bufs(k progKey) (*[]isa.Instr, *[]int) {
	tp := e.at(k)
	switch e.sec {
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
	r.tiles[k] = true
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

// rd / wr annotate an op's region accesses for the ledger.
type regAccess struct {
	r     *region
	write bool
}

func rd(r *region) regAccess { return regAccess{r: r} }
func wr(r *region) regAccess { return regAccess{r: r, write: true} }

// op emits one coarse/offload/transfer/track instruction on tile k, staging
// constant operands through scratch registers, and records its accesses.
func (e *emitter) op(k progKey, opcode isa.Opcode, operands []opr, accs ...regAccess) {
	buf, tags := e.bufs(k)
	n0 := len(*buf)
	regs := make([]isa.Reg, len(operands))
	next := isa.Reg(regScratch)
	for i, o := range operands {
		if o.isReg {
			regs[i] = o.reg
			continue
		}
		if o.val > 1<<31-1 || o.val < -(1<<31) {
			panic(fmt.Sprintf("compiler: operand %d exceeds immediate range", o.val))
		}
		*buf = append(*buf, isa.Ldri(next, int32(o.val)))
		regs[i] = next
		next++
		if int(next) >= isa.NumRegs {
			panic("compiler: out of scratch registers")
		}
	}
	*buf = append(*buf, isa.WithArgs(opcode, regs...))
	for range len(*buf) - n0 {
		*tags = append(*tags, e.layer)
	}
	for _, a := range accs {
		e.touch(k, a.r, a.write)
	}
}

// finalize assembles each tile's program:
//
//	arming blocks, last armed first
//	prologue
//	LDRI iter
//	iterLoop: <per-iteration body: all minibatch images, unrolled>
//	<batch section: weight update + iteration barrier>
//	dec iter; BGTZ iterLoop; HALT
//
// and derives the tracker manifest from the ledger, plus a parallel
// per-instruction layer-tag slice for each program (the profiler's
// program→layer binding).
func (e *emitter) finalize(iterations int) (map[progKey]*isa.Program, map[progKey][]int, []sim.TrackerSpec) {
	// Derive trackers first: it also collects each tile's DMAMEMTRACK
	// arming blocks.
	trackers := e.trackerManifest()
	progs := make(map[progKey]*isa.Program, len(e.progs))
	layerTags := make(map[progKey][]int, len(e.progs))
	for k, tp := range e.progs {
		n := len(tp.arming) + len(tp.prologue) + 1 + len(tp.image) + len(tp.batch) + 3
		ins := make([]isa.Instr, 0, n)
		tags := make([]int, 0, n)
		for end := len(tp.arming); end > 0; end -= armBlockLen {
			ins = append(ins, tp.arming[end-armBlockLen:end]...)
		}
		for range tp.arming {
			tags = append(tags, untaggedLayer)
		}
		ins = append(ins, tp.prologue...)
		tags = append(tags, tp.prologueTags...)
		ins = append(ins, isa.Ldri(regIter, int32(iterations)))
		tags = append(tags, untaggedLayer)
		iterTop := len(ins)
		ins = append(ins, tp.image...)
		tags = append(tags, tp.imageTags...)
		ins = append(ins, tp.batch...)
		tags = append(tags, tp.batchTags...)
		ins = append(ins, isa.Subri(regIter, regIter, 1))
		ins = append(ins, isa.Bgtz(regIter, int32(iterTop-(len(ins)+1))))
		ins = append(ins, isa.Halt())
		tags = append(tags, untaggedLayer, untaggedLayer, untaggedLayer)
		if len(tags) != len(ins) || len(ins) != n {
			panic(fmt.Sprintf("compiler: program out of sync on %v: %d tags for %d instrs, %d expected",
				k, len(tags), len(ins), n))
		}
		progs[k] = &isa.Program{
			Tile:   fmt.Sprintf("r%d.c%d.%s", k.Row, k.CCol, k.Step),
			Instrs: ins,
		}
		layerTags[k] = tags
	}
	return progs, layerTags, trackers
}

// trackerManifest derives one TrackerSpec per multi-tile region from the
// ledger. Single-tile regions need no tracker: program order within one
// tile's instruction stream already serializes their accesses. For ISA
// fidelity each tracked region also gets a DMAMEMTRACK instruction in the
// prologue of one touching tile (arming is idempotent; the manifest pre-arm
// exists so no data op can race the arming instruction, §3.2.4).
func (e *emitter) trackerManifest() []sim.TrackerSpec {
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
					r.name, r.imgWrites, r.imgReads, g))
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
			spec.NumUpdates = 1
			spec.NumReads = r.imgReads + r.batchReads
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
		e.emitTrackInstr(r, spec)
	}
	return specs
}

// armBlockLen is the length of one tracker's arming block: five LDRIs
// staging its operands, then the DMAMEMTRACK.
const armBlockLen = 6

// emitTrackInstr adds a DMAMEMTRACK arming block for the region to its
// lowest-ordered touching tile. The block lands ahead of that tile's
// prologue at finalize.
func (e *emitter) emitTrackInstr(r *region, spec sim.TrackerSpec) {
	var best progKey
	first := true
	for k := range r.tiles {
		if first || lessKey(k, best) {
			best, first = k, false
		}
	}
	tp := e.at(best)
	regs := []isa.Reg{regScratch, regScratch + 1, regScratch + 2, regScratch + 3, regScratch + 4}
	vals := []int64{isa.AbsTile(spec.MemTile), spec.Addr, spec.Size, int64(spec.NumUpdates), int64(spec.NumReads)}
	for i, v := range vals {
		tp.arming = append(tp.arming, isa.Ldri(regs[i], int32(v)))
	}
	tp.arming = append(tp.arming, isa.WithArgs(isa.DMAMEMTRACK, regs...))
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
