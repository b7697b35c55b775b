package sim

import (
	"fmt"

	"scaledeep/internal/isa"
)

// maxInstructions bounds executed instructions per tile per Run as a runaway
// guard (a program with a broken loop otherwise hangs the simulation).
const maxInstructions = 1 << 30

// coarseFn runs the timing of one non-scalar instruction with resolved
// operand values: tracker admission, occupancy and traffic. It returns
// (false, _) if the tile blocked, else (true, completionCycle).
type coarseFn func(m *Machine, ct *compTile, v []int64) (bool, Cycle)

// dataFn runs the datapath of an admitted non-scalar instruction: it reads
// the op's operands and writes its results. runTile calls it only for an
// op inside its tile's data window.
type dataFn func(m *Machine, ct *compTile, v []int64)

// opEntry is the interpreter's static view of one opcode. The table is built
// once at init and indexed by isa.Instr.Op, so tiles run their programs'
// instructions as emitted: no per-program decode, no copy of the stream.
type opEntry struct {
	exec   coarseFn   // nil for scalar opcodes
	data   dataFn     // nil for ops that move no data
	scalar bool       // executes inline on the scalar PE
	busy   AttrBucket // bucket of a coarse op's occupied span (opBusyBucket)
	name   string     // mnemonic, the op span's name
}

var opTab [isa.NumOpcodes]opEntry

func init() {
	dispatch := [isa.NumOpcodes]struct {
		exec coarseFn
		data dataFn
	}{
		isa.NDCONV:      {(*Machine).execNDConv, (*Machine).ndconvData},
		isa.MATMUL:      {(*Machine).execMatMul, (*Machine).matMulData},
		isa.NDACTFN:     {(*Machine).execActFn, (*Machine).actFnData},
		isa.NDSUBSAMP:   {(*Machine).execSubsamp, (*Machine).subsampData},
		isa.NDUPSAMP:    {(*Machine).execUpsamp, (*Machine).upsampData},
		isa.NDACC:       {(*Machine).execAcc, (*Machine).accData},
		isa.VECMUL:      {(*Machine).execVecMul, (*Machine).vecMulData},
		isa.WUPDATE:     {(*Machine).execWUpdate, (*Machine).wUpdateData},
		isa.MEMSET:      {(*Machine).execMemSet, (*Machine).memSetData},
		isa.DMALOAD:     {(*Machine).execDMA, (*Machine).dmaData},
		isa.DMASTORE:    {(*Machine).execDMA, (*Machine).dmaData},
		isa.PASSBUFF:    {exec: (*Machine).execPassBuff},
		isa.MEMTRACK:    {exec: (*Machine).execMemTrack},
		isa.DMAMEMTRACK: {exec: (*Machine).execMemTrack},
	}
	for op := isa.Opcode(0); op < isa.NumOpcodes; op++ {
		e := opEntry{
			exec:   dispatch[op].exec,
			data:   dispatch[op].data,
			scalar: op.Group() == isa.GroupScalar,
			busy:   opBusyBucket(op),
			name:   op.String(),
		}
		if !e.scalar && e.exec == nil {
			panic(fmt.Sprintf("sim: unhandled op %v", op))
		}
		opTab[op] = e
	}
}

// runTile resumes one CompHeavy tile: scalar instructions execute inline;
// each coarse/offload/transfer operation either blocks on a tracker
// (suspending the tile until woken) or completes, advancing the tile's local
// clock and rescheduling it, so tiles interleave in simulated-time order.
// A completed op also runs its datapath if its pc lies inside the tile's
// data window. Timing never depends on data (no scalar op reads memory), so
// the window changes only the values in memory, never a cycle, span or
// statistic. The loop reads the installed program's instructions in place,
// through opTab, and works in the machine's reusable scratch buffers:
// steady-state execution allocates nothing.
func (m *Machine) runTile(ct *compTile) {
	ct.blocked, ct.blockTk = "", nil
	if m.instrProfile && ct.pcProf == nil {
		n := len(ct.prog.Instrs)
		ct.pcProf = &instrProf{
			attr:  make([]CycleAttribution, n),
			flops: make([]int64, n),
			bytes: make([]int64, n),
		}
	}
	code := ct.prog.Instrs
	for {
		if ct.pc >= len(code) {
			m.halt(ct)
			return
		}
		ins := &code[ct.pc]
		op := &opTab[ins.Op]
		ct.instrs++
		if ct.instrs > maxInstructions {
			panic("sim: instruction budget exhausted (runaway program?)")
		}
		if op.scalar {
			ct.scalarCycles++
			ct.time++
			m.account(ct, AttrCompute, 1)
			if done := m.execScalar(ct, ins); done {
				return
			}
			// Yield when another tile has an earlier pending event, so tiles
			// interleave in simulated-time order (keeps tracker arbitration
			// causally faithful even through long scalar stretches).
			if ct.scalarCycles%32 == 0 {
				if at, ok := m.eng.peekTime(); ok && at < ct.time {
					m.eng.schedule(ct.index, ct.time)
					return
				}
			}
			continue
		}
		// Non-scalar: resolve operands into the reusable scratch buffer and
		// attempt the operation.
		v := m.argBuf[:len(ins.Args)]
		for i, a := range ins.Args {
			v[i] = ct.regs[a]
		}
		start := ct.time
		flops0 := ct.flops
		m.opQueueWait, m.opBytes = 0, 0
		ok, end := op.exec(m, ct, v)
		if !ok {
			return // blocked; tracker wake or NACK retry will reschedule
		}
		if op.data != nil && ct.pc >= ct.dataLo && ct.pc < ct.dataHi {
			m.arena.reset()
			op.data(m, ct, v)
		}
		m.traceOp(ct, ins.Op, start, end)
		// Attribute the op's span: the leading queue-for-busy-resource part
		// is contention, the remainder is the operation itself (compute for
		// array/SFU work, dma-wait for transfers).
		total := end - start
		wait := m.opQueueWait
		if wait > total {
			wait = total
		}
		m.account(ct, AttrLinkContend, wait)
		m.account(ct, op.busy, total-wait)
		if p := ct.pcProf; p != nil && ct.pc < len(p.flops) {
			p.flops[ct.pc] += ct.flops - flops0
			p.bytes[ct.pc] += m.opBytes
		}
		ct.nackRetries = 0
		ct.pc++
		ct.time = end
		m.eng.schedule(ct.index, end)
		return
	}
}

// opBusyBucket classifies a coarse op's occupied span: transfers are
// dma-wait, everything else (array, SFU offload, tracker arming) is compute.
func opBusyBucket(op isa.Opcode) AttrBucket {
	switch op {
	case isa.DMALOAD, isa.DMASTORE, isa.PASSBUFF:
		return AttrDMAWait
	default:
		return AttrCompute
	}
}

func (m *Machine) halt(ct *compTile) {
	ct.halted = true
	m.finished++
	if ct.time > m.stats.Cycles {
		m.stats.Cycles = ct.time
	}
}

// execScalar executes one scalar-control instruction. It returns true when
// the tile halted.
func (m *Machine) execScalar(ct *compTile, ins *isa.Instr) bool {
	r := &ct.regs
	switch ins.Op {
	case isa.LDRI:
		r[ins.Dst] = int64(ins.Imm)
	case isa.MOVR:
		r[ins.Dst] = r[ins.Src1]
	case isa.ADDR:
		r[ins.Dst] = r[ins.Src1] + r[ins.Src2]
	case isa.ADDRI:
		r[ins.Dst] = r[ins.Src1] + int64(ins.Imm)
	case isa.SUBR:
		r[ins.Dst] = r[ins.Src1] - r[ins.Src2]
	case isa.SUBRI:
		r[ins.Dst] = r[ins.Src1] - int64(ins.Imm)
	case isa.MULRI:
		r[ins.Dst] = r[ins.Src1] * int64(ins.Imm)
	case isa.CMPLT:
		if r[ins.Src1] < r[ins.Src2] {
			r[ins.Dst] = 1
		} else {
			r[ins.Dst] = 0
		}
	case isa.BEQZ:
		if r[ins.Src1] == 0 {
			ct.pc += int(ins.Imm)
		}
	case isa.BNEZ:
		if r[ins.Src1] != 0 {
			ct.pc += int(ins.Imm)
		}
	case isa.BGTZ:
		if r[ins.Src1] > 0 {
			ct.pc += int(ins.Imm)
		}
	case isa.BRANCH:
		ct.pc += int(ins.Imm)
	case isa.NOP:
	case isa.HALT:
		m.halt(ct)
		return true
	default:
		panic(fmt.Sprintf("sim: unhandled scalar op %v", ins.Op))
	}
	ct.pc++
	return false
}

// admit checks every access against its tracker, looking each one up once.
// If any is blocked, the tile suspends on that tracker and admit returns
// false. Otherwise all accesses are noted (counted) and their trackers'
// waiters woken at `end`.
func (m *Machine) admit(ct *compTile, accs []access, desc string, end Cycle) bool {
	for i := range accs {
		a := &accs[i]
		if a.loc.mem == nil {
			continue // external memory is untracked
		}
		a.tk = a.loc.mem.findTracker(a.addr, a.size)
		if a.tk != nil && a.blockedBy(a.tk) {
			m.block(ct, a.tk, a.write, desc)
			return false
		}
	}
	for i := range accs {
		a := &accs[i]
		if t := a.tk; t != nil {
			if a.write {
				t.noteWrite()
			} else {
				t.noteRead()
			}
			m.wake(t, end)
		}
		// Traffic accounting.
		bytes := a.size * m.elemBytes
		if a.loc.mem != nil {
			a.loc.mem.bytesMoved += bytes
			a.loc.mem.touch(a.addr, a.size)
		} else {
			a.loc.ext.bytes += bytes
		}
	}
	return true
}

// execMemTrack arms a tracker (idempotent after a manifest pre-arm).
func (m *Machine) execMemTrack(ct *compTile, v []int64) (bool, Cycle) {
	loc := m.resolvePort(ct, v[0])
	if loc.mem == nil {
		panic("sim: MEMTRACK on external memory")
	}
	loc.mem.arm(v[1], v[2], int(v[3]), int(v[4]), false)
	return true, ct.time + 1
}
