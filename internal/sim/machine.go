package sim

import (
	"fmt"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
)

// Step indexes the three CompHeavy tiles per grid cell (§3.2.1: the chip has
// three CompHeavy tiles per MemHeavy tile, one each for FP, BP and WG).
type Step int

const (
	StepFP Step = iota
	StepBP
	StepWG
	stepsPerCell
)

func (s Step) String() string {
	switch s {
	case StepFP:
		return "FP"
	case StepBP:
		return "BP"
	case StepWG:
		return "WG"
	default:
		return "?"
	}
}

// waitCause records why a suspended tile is off the event queue, so the gap
// until its wake event can be attributed to the right bucket.
type waitCause int

const (
	waitNone   waitCause = iota
	waitNACK             // backing off after a tracker queue-full NACK
	waitQueued           // parked in a tracker wait queue
)

// compTile models one CompHeavy tile: the scalar PE's register file and
// program counter, plus the 2D-PE array whose occupancy provides coarse-op
// timing.
type compTile struct {
	index int
	row   int
	ccol  int // compute column (0..Cols-1)
	step  Step

	prog *isa.Program // run as emitted (see opTab)
	pc   int
	regs [isa.NumRegs]int64
	// dataLo and dataHi bound the data window: the ops at pcs in [dataLo,
	// dataHi) run their datapath (see SetDataWindow).
	dataLo, dataHi int

	time        Cycle
	halted      bool
	blocked     string    // op description while waiting on a tracker
	blockTk     *tracker  // the tracker it waits on (for diagnostics)
	waitCause   waitCause // why the tile is suspended (attribution)
	nackRetries int       // consecutive NACKed requests (bounded)

	// activity statistics — kept per tile (no shared-counter writes on the
	// hot path) and aggregated into Stats by collectStats.
	arrayCycles  Cycle // cycles the 2D-PE array was busy
	scalarCycles Cycle
	flops        int64
	instrs       int64            // instructions executed
	nacks        int64            // tracker queue-full NACKs received
	dmas         int64            // DMA transfers issued
	linkBytes    [3]int64         // traffic by linkClass
	attr         CycleAttribution // where every elapsed cycle went
	pcProf       *instrProf       // per-instruction accounting (nil unless enabled)

	nameStr string // cached name() result (hot-path span track label)
}

// instrProf is the optional per-instruction breakdown behind the layer
// profiler: slices are indexed by program counter.
type instrProf struct {
	attr  []CycleAttribution
	flops []int64
	bytes []int64
}

func (c *compTile) name() string {
	if c.nameStr == "" {
		c.nameStr = fmt.Sprintf("comp[r%d,c%d,%s]", c.row, c.ccol, c.step)
	}
	return c.nameStr
}

// TrackerSpec is one entry of the compiler's tracker manifest: trackers are
// armed before cycle 0 (the generated programs also carry MEMTRACK
// instructions; arming is idempotent).
type TrackerSpec struct {
	MemTile    int // absolute MemHeavy tile index
	Addr, Size int64
	NumUpdates int
	NumReads   int
	Preloaded  bool // generation 0 content is pre-loaded by the harness
}

// Machine simulates one ScaleDeep chip. Every instruction runs its timing:
// tracker synchronization, occupancy, traffic, spans and statistics. A
// functional machine also carries real data through the scratchpads: an
// op runs its datapath when its pc lies inside its tile's data window,
// which LoadProgram opens to the whole program and SetDataWindow can
// narrow. A timing-only machine carries no data: its windows stay empty.
// Timing never depends on data, so no window moves a statistic.
type Machine struct {
	Chip       arch.ChipConfig
	Functional bool

	eng  engine
	mem  []*memTile  // Rows × (Cols+1), column-major: index = mcol*Rows + row
	comp []*compTile // Rows × Cols × 3
	ext  *extMem

	// pool argmax routing memory for NDUPSAMP (keyed by mem tile and
	// forward-output address).
	poolRoute map[[2]int64][]int32

	precision arch.Precision
	elemBytes int64
	half      bool // quantize functional data through binary16 (Fig. 17 mode)
	freqHz    float64
	finished  int
	stats     Stats

	// Reusable hot-path scratch: operand values (argBuf, sized for the
	// widest arg list, NDCONV's 14), tracker-access descriptors (accBuf, at
	// most 3 per op) and functional staging buffers (arena).
	argBuf [16]int64
	accBuf [4]access
	arena  f32Arena

	// Persistent im2col panel for the fast convolution kernels. Unlike the
	// arena it survives across ops (capacity-retaining), so steady-state
	// NDCONV execution allocates nothing.
	convScratch tensor.ConvScratch

	// Cycle-attribution scratch: execCoarse implementations report how much
	// of the op's span was queueing for a busy resource, and how many
	// operand/link bytes it moved, through these per-op accumulators.
	instrProfile bool
	opQueueWait  Cycle
	opBytes      int64

	// Telemetry hooks (zero/nil = disabled; see telemetry.go). Ops bucket
	// durations into the local opHists shadow and count into per-tile
	// fields; Run publishes both once, through handles resolved when the
	// registry is attached and programs are loaded.
	spans   telemetry.TraceContext
	spanBuf []telemetry.Span // per-Run span batch, flushed by flushSpans
	// spanRoom is how many spans this Run may buffer, read from the lane at
	// its start; spansPastRoom counts the spans past it, which are never
	// built.
	spanRoom      int
	spansPastRoom int64
	// STALL-note scratch (traceStall): the note's bytes, and the run's
	// note table, each distinct note's attribute slice keyed by its text.
	// Reset clears the table, so it holds at most one run's notes.
	noteBuf []byte
	notes   map[string][]telemetry.Attr

	metrics      *telemetry.Registry
	statsMetrics statsMetrics // sim.* counters and gauges in metrics
	opHists      opHistSet
}

// NewMachine builds a simulator for one chip of the given configuration.
func NewMachine(chip arch.ChipConfig, precision arch.Precision, functional bool) *Machine {
	m := &Machine{
		Chip:       chip,
		Functional: functional,
		ext:        &extMem{},
		poolRoute:  map[[2]int64][]int32{},
		notes:      map[string][]telemetry.Attr{},
		precision:  precision,
		elemBytes:  precision.Bytes(),
		half:       precision == arch.Half,
	}
	capElems := int64(chip.MemHeavy.CapacityKB) * 1024 / m.elemBytes
	for mcol := 0; mcol <= chip.Cols; mcol++ {
		for row := 0; row < chip.Rows; row++ {
			mt := &memTile{
				index:      len(m.mem),
				row:        row,
				mcol:       mcol,
				capacity:   capElems,
				queueDepth: chip.MemHeavy.TrackQueueDepth,
			}
			if functional {
				mt.data = make([]float32, capElems)
			}
			m.mem = append(m.mem, mt)
		}
	}
	for ccol := 0; ccol < chip.Cols; ccol++ {
		for row := 0; row < chip.Rows; row++ {
			for s := Step(0); s < stepsPerCell; s++ {
				m.comp = append(m.comp, &compTile{
					index: len(m.comp), row: row, ccol: ccol, step: s,
				})
			}
		}
	}
	return m
}

// memIndex returns the MemHeavy tile index at (row, mcol).
func (m *Machine) memIndex(row, mcol int) int { return mcol*m.Chip.Rows + row }

// MemTileIndex exposes memIndex for the compiler (absolute-port encoding).
func (m *Machine) MemTileIndex(row, mcol int) int { return m.memIndex(row, mcol) }

// compIndex returns the CompHeavy tile index at (row, ccol, step).
func (m *Machine) compIndex(row, ccol int, s Step) int {
	return (ccol*m.Chip.Rows+row)*int(stepsPerCell) + int(s)
}

// compTileAt returns the CompHeavy tile at (row, ccol, step).
func (m *Machine) compTileAt(row, ccol int, s Step) (*compTile, error) {
	if row < 0 || row >= m.Chip.Rows || ccol < 0 || ccol >= m.Chip.Cols || s < 0 || s >= stepsPerCell {
		return nil, fmt.Errorf("sim: tile (r%d,c%d,%s) outside %dx%d chip", row, ccol, s, m.Chip.Rows, m.Chip.Cols)
	}
	return m.comp[m.compIndex(row, ccol, s)], nil
}

// LoadProgram installs a program on the CompHeavy tile at (row, ccol, step)
// and opens the tile's data window to the whole program. The tile runs p's
// instructions in place, so p must not change until the machine is Reset.
func (m *Machine) LoadProgram(row, ccol int, s Step, p *isa.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	ct, err := m.compTileAt(row, ccol, s)
	if err != nil {
		return err
	}
	ct.prog = p
	ct.dataLo, ct.dataHi = 0, 0
	if m.Functional {
		ct.dataHi = len(p.Instrs)
	}
	m.resolveOpHists(p)
	return nil
}

// SetDataWindow sets the data window of the tile at (row, ccol, step) to
// the pcs [lo, hi) of its loaded program: from Run on, only the ops there
// run their datapath, and every other op runs its timing alone. lo == hi
// runs no datapath on the tile. The caller chooses a window whose ops read
// only data that ops inside the windows write or that was loaded before
// Run; data outside it is left as it stood. It refuses a tile without a
// program and a window outside the program. On a timing-only machine the
// window stays empty.
func (m *Machine) SetDataWindow(row, ccol int, s Step, lo, hi int) error {
	ct, err := m.compTileAt(row, ccol, s)
	if err != nil {
		return err
	}
	if ct.prog == nil {
		return fmt.Errorf("sim: data window on %s, which has no program", ct.name())
	}
	if lo < 0 || lo > hi || hi > len(ct.prog.Instrs) {
		return fmt.Errorf("sim: data window [%d, %d) on %s outside its %d-instruction program", lo, hi, ct.name(), len(ct.prog.Instrs))
	}
	if m.Functional {
		ct.dataLo, ct.dataHi = lo, hi
	}
	return nil
}

// ArmTrackers installs the compiler's tracker manifest.
func (m *Machine) ArmTrackers(specs []TrackerSpec) {
	for _, s := range specs {
		m.mem[s.MemTile].arm(s.Addr, s.Size, s.NumUpdates, s.NumReads, s.Preloaded)
	}
}

// WriteMem pre-loads values into a MemHeavy scratchpad (weights, constants).
// In half-precision mode values are quantized through binary16, as the
// hardware would store them.
func (m *Machine) WriteMem(tile int, addr int64, vals []float32) {
	mt := m.mem[tile]
	mt.touch(addr, int64(len(vals)))
	if mt.data != nil {
		copy(mt.data[addr:], vals)
		if m.half {
			tensor.RoundHalfSlice(mt.data[addr : addr+int64(len(vals))])
		}
	}
}

// ReadMem reads values back from a scratchpad after simulation.
func (m *Machine) ReadMem(tile int, addr, size int64) []float32 {
	out := make([]float32, size)
	m.ReadMemInto(tile, addr, out)
	return out
}

// ReadMemInto reads len(dst) scratchpad elements starting at addr into dst,
// so repeated readers (weight readback, checksums) can reuse one buffer
// instead of allocating per call.
func (m *Machine) ReadMemInto(tile int, addr int64, dst []float32) {
	mt := m.mem[tile]
	size := int64(len(dst))
	mt.touch(addr, size)
	if mt.data != nil {
		copy(dst, mt.data[addr:addr+size])
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
}

// WriteExt pre-loads external memory (network inputs, golden outputs,
// off-chip weights), quantizing in half-precision mode. Timing-only
// machines back no external memory, so there it is a no-op.
func (m *Machine) WriteExt(addr int64, vals []float32) {
	if !m.Functional {
		return
	}
	s := m.ext.span(addr, int64(len(vals)))
	copy(s, vals)
	if m.half {
		tensor.RoundHalfSlice(s)
	}
}

// ReadExt reads external memory after simulation.
func (m *Machine) ReadExt(addr, size int64) []float32 {
	out := make([]float32, size)
	m.ReadExtInto(addr, out)
	return out
}

// ReadExtInto reads len(dst) external-memory elements starting at addr into
// dst; the buffer-reusing variant of ReadExt.
func (m *Machine) ReadExtInto(addr int64, dst []float32) {
	if !m.Functional {
		clear(dst)
		return
	}
	copy(dst, m.ext.span(addr, int64(len(dst))))
}

// Run executes all loaded programs to completion and returns the statistics.
// It fails with a *DeadlockError if the machine stops making progress.
//
// Every tile runs on one event queue in (cycle, seq) order, so the
// interleaving — and with it every statistic, trace and functional output —
// is a pure function of the loaded programs and data.
func (m *Machine) Run() (Stats, error) {
	active := 0
	for _, ct := range m.comp {
		if ct.prog == nil {
			continue
		}
		active++
		if !ct.halted {
			m.eng.schedule(ct.index, 0)
		}
	}
	if active == 0 {
		return Stats{}, fmt.Errorf("sim: no programs loaded")
	}
	m.finished = 0
	m.spanRoom = m.spans.SpanRoom()
	m.drainEvents()
	m.flushSpans()
	if m.finished < active {
		return Stats{}, m.deadlock()
	}
	m.collectStats()
	m.publishMetrics()
	return m.stats, nil
}

// drainEvents pops the machine's event queue to empty, resuming tiles in
// (cycle, seq) order and attributing suspension gaps to their cause.
func (m *Machine) drainEvents() {
	for {
		ev, ok := m.eng.next()
		if !ok {
			return
		}
		ct := m.comp[ev.tile]
		if ct.halted {
			continue
		}
		if ev.at > ct.time {
			// The gap between the tile's own clock and its wake event is
			// time it spent suspended; attribute it by the suspension cause.
			d := ev.at - ct.time
			switch ct.waitCause {
			case waitNACK:
				m.account(ct, AttrTrackNACK, d)
			case waitQueued:
				m.account(ct, AttrTrackWait, d)
			default:
				m.account(ct, AttrIdle, d)
			}
			ct.time = ev.at
		}
		ct.waitCause = waitNone
		m.runTile(ct)
	}
}

// deadlock builds the blocked-tile report for a run that stopped making
// progress, stamped with the final event-queue clock.
func (m *Machine) deadlock() *DeadlockError {
	d := &DeadlockError{Cycle: m.eng.now}
	for _, ct := range m.comp {
		if ct.prog != nil && !ct.halted {
			desc := ct.blocked
			if ct.blockTk != nil {
				desc += " on " + ct.blockTk.String()
			}
			d.Blocked = append(d.Blocked, fmt.Sprintf("%s pc=%d: %s", ct.name(), ct.pc, desc))
		}
	}
	return d
}

// Reset returns the machine to its post-NewMachine state — programs,
// trackers, tile clocks, statistics and telemetry hooks all cleared, with
// every buffer (scratchpads, external extents, event queue, arena) retained
// at capacity — so sweep workers can reuse one machine's allocations across
// jobs of the same chip configuration. Every scratchpad access passes
// through touch, so each scratchpad is cleared only below the last run's
// high-water mark. External memory is cleared across every extent the
// machine has backed since it was built: extents are kept, so on a reused
// machine they cover what any earlier run touched.
func (m *Machine) Reset() {
	m.eng.reset()
	for _, ct := range m.comp {
		name := ct.nameStr
		*ct = compTile{index: ct.index, row: ct.row, ccol: ct.ccol, step: ct.step, nameStr: name}
	}
	for _, mt := range m.mem {
		mt.trackers = mt.trackers[:0]
		mt.sfuBusy, mt.dmaBusy = 0, 0
		if mt.data != nil {
			clear(mt.data[:mt.peakAddr])
		}
		mt.sfuCycles, mt.bytesMoved, mt.peakAddr = 0, 0, 0
	}
	m.ext.reset()
	clear(m.poolRoute)
	clear(m.notes)
	m.freqHz = 0
	m.finished = 0
	m.stats = Stats{}
	m.instrProfile = false
	m.opQueueWait, m.opBytes = 0, 0
	m.spans, m.spanBuf = telemetry.TraceContext{}, m.spanBuf[:0]
	m.spanRoom, m.spansPastRoom = 0, 0
	m.SetMetrics(nil)
}

// wake reschedules every waiter of t at the current cycle.
func (m *Machine) wake(t *tracker, at Cycle) {
	for _, w := range t.waitReaders {
		m.eng.schedule(w.tile, at)
	}
	for _, w := range t.waitWriters {
		m.eng.schedule(w.tile, at)
	}
	t.waitReaders = t.waitReaders[:0]
	t.waitWriters = t.waitWriters[:0]
}

// block registers ct as a waiter on t. Queue overflow models the paper's
// NACK: the tile retries after a backoff instead of queueing. Retries are
// bounded: after nackRetryLimit consecutive NACKs the request is queued
// regardless (modeling eventual delivery), so a genuine deadlock drains the
// event queue and is reported instead of spinning forever.
func (m *Machine) block(ct *compTile, t *tracker, write bool, desc string) {
	ct.blocked = desc
	ct.blockTk = t
	m.traceStall(ct, t, desc)
	w := waiter{tile: ct.index, desc: desc}
	mtQueue := &t.waitReaders
	if write {
		mtQueue = &t.waitWriters
	}
	if len(*mtQueue) >= m.queueLimit() && ct.nackRetries < nackRetryLimit {
		// NACK: retry later without occupying a queue slot.
		ct.nackRetries++
		ct.waitCause = waitNACK
		m.eng.schedule(ct.index, ct.time+nackRetryCycles)
		ct.nacks++
		return
	}
	ct.nackRetries = 0
	ct.waitCause = waitQueued
	*mtQueue = append(*mtQueue, w)
}

func (m *Machine) queueLimit() int {
	if m.Chip.MemHeavy.TrackQueueDepth <= 0 {
		return 8
	}
	return m.Chip.MemHeavy.TrackQueueDepth
}

// nackRetryCycles is the backoff before a NACKed request retries;
// nackRetryLimit bounds consecutive retries before the request queues
// anyway (so deadlocks terminate and get reported).
const (
	nackRetryCycles = 16
	nackRetryLimit  = 64
)

// account charges d cycles of tile ct to bucket b, mirrored into the
// per-instruction profile (at the current pc) when enabled.
func (m *Machine) account(ct *compTile, b AttrBucket, d Cycle) {
	if d <= 0 {
		return
	}
	ct.attr[b] += d
	if p := ct.pcProf; p != nil && ct.pc < len(p.attr) {
		p.attr[ct.pc][b] += d
	}
}

// EnableInstrProfile turns on per-instruction accounting (cycles by bucket,
// FLOPs, operand/link bytes, all indexed by program counter) for every tile.
// Call before Run; the layer profiler (internal/profile) consumes the result
// through InstrProfile.
func (m *Machine) EnableInstrProfile() { m.instrProfile = true }

// InstrProfile is one tile's per-instruction accounting, slices indexed by
// program counter. Wait cycles are charged to the instruction that was
// blocked; drain and idle time have no program counter and appear only in
// Stats.Attr.
type InstrProfile struct {
	Attr  []CycleAttribution
	FLOPs []int64
	Bytes []int64
}

// InstrProfile returns the accounting of the program on tile (row, ccol,
// step), or nil if no program ran there or profiling was not enabled.
func (m *Machine) InstrProfile(row, ccol int, s Step) *InstrProfile {
	ct, err := m.compTileAt(row, ccol, s)
	if err != nil || ct.pcProf == nil {
		return nil
	}
	return &InstrProfile{Attr: ct.pcProf.attr, FLOPs: ct.pcProf.flops, Bytes: ct.pcProf.bytes}
}
