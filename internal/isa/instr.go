package isa

import (
	"fmt"
	"math"
	"strings"
)

// NumRegs is the scalar register file size of the CompHeavy tile's scalar PE.
const NumRegs = 64

// Reg is a scalar register index.
type Reg uint8

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Instr is one ScaleDeep instruction. Scalar instructions use Dst/Src1/Src2/
// Imm; coarse-grained, offload, transfer and track instructions carry their
// operands as a register list in Args (each names a scalar register whose
// value supplies the operand, exactly as Fig. 8's "R..." operands do).
type Instr struct {
	Op   Opcode
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int32
	Args []Reg
}

// Validate checks the operand shape against the opcode table.
func (i Instr) Validate() error {
	if !i.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", i.Op)
	}
	info := opTable[i.Op]
	if len(i.Args) != info.numArgs {
		return fmt.Errorf("isa: %s needs %d args, got %d", i.Op, info.numArgs, len(i.Args))
	}
	for _, r := range [...]Reg{i.Dst, i.Src1, i.Src2} {
		if r >= NumRegs {
			return fmt.Errorf("isa: %s uses register %d ≥ %d", i.Op, r, NumRegs)
		}
	}
	for _, r := range i.Args {
		if r >= NumRegs {
			return fmt.Errorf("isa: %s uses register %d ≥ %d", i.Op, r, NumRegs)
		}
	}
	return nil
}

// String renders the instruction in assembly syntax.
func (i Instr) String() string {
	info := opTable[i.Op]
	parts := []string{}
	if info.hasDst {
		parts = append(parts, i.Dst.String())
	}
	if info.numSrc >= 1 {
		parts = append(parts, i.Src1.String())
	}
	if info.numSrc >= 2 {
		parts = append(parts, i.Src2.String())
	}
	if info.hasImm {
		parts = append(parts, fmt.Sprintf("%d", i.Imm))
	}
	for _, a := range i.Args {
		parts = append(parts, a.String())
	}
	if len(parts) == 0 {
		return i.Op.String()
	}
	return i.Op.String() + " " + strings.Join(parts, ", ")
}

// Program is the instruction stream of one CompHeavy tile, together with a
// label identifying the tile it is compiled for (e.g. "chip0.col3.row2.FP").
// Its Repeat may mark a stored section that the stream runs several times
// back to back, so that the section is stored once. Program counters, Len
// and every form of the program (binary, text, instruction mix) are those
// of the stream as it runs, with the section laid out once per copy (see
// Expand).
type Program struct {
	Tile   string
	Instrs []Instr
	Repeat Repeat
}

// Repeat marks the stored section Instrs[Lo:Lo+Len] of a program that the
// stream runs N times end to end before the instructions after it. Copy i
// of the section's LDRI at offset j loads Imm + i*Stride[j]; every other
// instruction is the same in each copy. Stride holds one entry per offset
// of the section, zero where the immediate does not change, or none when
// no immediate changes. N ≤ 1 runs the section once, as stored: the
// program is plain. The repeat compresses the stream on the host and is
// not an instruction: the ISA's binary and text forms lay the copies out.
type Repeat struct {
	Lo, Len, N int
	Stride     []int64
}

// copies returns how many times the stream runs the repeated section.
func (r *Repeat) copies() int { return max(r.N, 1) }

// Len returns the length of the stream the program runs: its stored
// instructions, plus the repeated section's further copies.
func (p *Program) Len() int { return len(p.Instrs) + (p.Repeat.copies()-1)*p.Repeat.Len }

// Locate returns the index in Instrs of the instruction at pc (0 ≤ pc <
// Len()), and the copy k of the repeated section pc falls in: 0 before the
// section, in its first copy and after it.
func (p *Program) Locate(pc int) (idx, k int) {
	r := &p.Repeat
	if r.N <= 1 || pc < r.Lo+r.Len {
		return pc, 0
	}
	if end := r.Lo + r.N*r.Len; pc >= end {
		return pc - (r.N-1)*r.Len, 0
	}
	k = (pc - r.Lo) / r.Len
	return pc - k*r.Len, k
}

// at returns the instruction at pc as the stream runs it: a later copy of
// a repeated LDRI carries its rebased immediate.
func (p *Program) at(pc int) Instr {
	idx, k := p.Locate(pc)
	ins := p.Instrs[idx]
	if k > 0 && len(p.Repeat.Stride) > 0 {
		ins.Imm = int32(int64(ins.Imm) + int64(k)*p.Repeat.Stride[idx-p.Repeat.Lo])
	}
	return ins
}

// Expand returns the program with its repeated section laid out once per
// copy, as a plain program; a plain program (N ≤ 1) is returned as is.
// The copies share their instructions' Args with p.
func (p *Program) Expand() *Program {
	if p.Repeat.N <= 1 {
		return p
	}
	q := &Program{Tile: p.Tile, Instrs: make([]Instr, p.Len())}
	for pc := range q.Instrs {
		q.Instrs[pc] = p.at(pc)
	}
	return q
}

// times returns how many times the stream runs the stored instruction at
// idx.
func (p *Program) times(idx int) int {
	if r := &p.Repeat; idx >= r.Lo && idx < r.Lo+r.Len {
		return r.copies()
	}
	return 1
}

// Validate checks every stored instruction once, the repeated section, and
// that the program is HALT-terminated. Branches may not lie inside a
// section that repeats, and their targets are pcs of the stream.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Tile)
	}
	if err := p.Repeat.validate(p.Instrs); err != nil {
		return fmt.Errorf("isa: %q: %w", p.Tile, err)
	}
	r := &p.Repeat
	n := p.Len()
	for idx, ins := range p.Instrs {
		pc := idx // the pc of its first copy
		if idx >= r.Lo+r.Len {
			pc += (r.copies() - 1) * r.Len
		}
		if err := ins.Validate(); err != nil {
			return fmt.Errorf("isa: %q pc=%d: %w", p.Tile, pc, err)
		}
		switch ins.Op {
		case BEQZ, BNEZ, BGTZ, BRANCH:
			if p.times(idx) > 1 {
				return fmt.Errorf("isa: %q pc=%d: branch inside the repeated section", p.Tile, pc)
			}
			// Branch targets must stay inside the program.
			t := pc + 1 + int(ins.Imm)
			if t < 0 || t > n {
				return fmt.Errorf("isa: %q pc=%d: branch target %d out of range", p.Tile, pc, t)
			}
		}
	}
	if p.Instrs[len(p.Instrs)-1].Op != HALT {
		return fmt.Errorf("isa: program %q does not end in HALT", p.Tile)
	}
	return nil
}

// validate checks a repeat against the stored instructions: its section
// lies inside them, a section that repeats is not empty and does not
// overflow the stream's length, Stride has no entry or one per offset,
// strides sit only on LDRIs, and every copy's immediate fits an int32.
func (r *Repeat) validate(instrs []Instr) error {
	if r.Lo < 0 || r.Len < 0 || r.N < 0 || r.Lo > len(instrs)-r.Len {
		return fmt.Errorf("repeat [%d, %d+%d) ×%d outside the %d stored instructions", r.Lo, r.Lo, r.Len, r.N, len(instrs))
	}
	if r.N > 1 && r.Len == 0 {
		return fmt.Errorf("repeat of an empty section ×%d", r.N)
	}
	if r.N > 1 && r.N-1 > (math.MaxInt-len(instrs))/r.Len {
		return fmt.Errorf("repeat of %d instructions ×%d overflows the stream's length", r.Len, r.N)
	}
	if len(r.Stride) != 0 && len(r.Stride) != r.Len {
		return fmt.Errorf("repeat of %d instructions has %d strides", r.Len, len(r.Stride))
	}
	last := int64(r.copies() - 1)
	for j, s := range r.Stride {
		if s == 0 {
			continue
		}
		ins := instrs[r.Lo+j]
		if ins.Op != LDRI {
			return fmt.Errorf("repeat stride %d on %s at offset %d, not an LDRI", s, ins.Op, j)
		}
		// The immediate moves linearly, so the last copy's is the extreme
		// one; compare by division so the product cannot overflow.
		room := math.MaxInt32 - int64(ins.Imm)
		if s < 0 {
			room = int64(ins.Imm) - math.MinInt32
		}
		if last > room/abs(s) {
			return fmt.Errorf("repeat stride %d at offset %d moves immediate %d past int32 in copy %d", s, j, ins.Imm, last)
		}
	}
	return nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// CountByGroup tallies the stream's instructions per group — the mix
// statistics the compiler reports.
func (p *Program) CountByGroup() map[Group]int {
	m := map[Group]int{}
	for idx, ins := range p.Instrs {
		m[ins.Op.Group()] += p.times(idx)
	}
	return m
}

// Convenience constructors used by the compiler's code generator. They keep
// emitted code terse and uniformly validated.

// Ldri builds LDRI rd, imm.
func Ldri(rd Reg, imm int32) Instr { return Instr{Op: LDRI, Dst: rd, Imm: imm} }

// Movr builds MOVR rd, rs.
func Movr(rd, rs Reg) Instr { return Instr{Op: MOVR, Dst: rd, Src1: rs} }

// Addr builds ADDR rd, rs1, rs2.
func Addr(rd, rs1, rs2 Reg) Instr { return Instr{Op: ADDR, Dst: rd, Src1: rs1, Src2: rs2} }

// Addri builds ADDRI rd, rs, imm.
func Addri(rd, rs Reg, imm int32) Instr { return Instr{Op: ADDRI, Dst: rd, Src1: rs, Imm: imm} }

// Subri builds SUBRI rd, rs, imm.
func Subri(rd, rs Reg, imm int32) Instr { return Instr{Op: SUBRI, Dst: rd, Src1: rs, Imm: imm} }

// Bnez builds BNEZ rs, off.
func Bnez(rs Reg, off int32) Instr { return Instr{Op: BNEZ, Src1: rs, Imm: off} }

// Bgtz builds BGTZ rs, off.
func Bgtz(rs Reg, off int32) Instr { return Instr{Op: BGTZ, Src1: rs, Imm: off} }

// Branch builds BRANCH off.
func Branch(off int32) Instr { return Instr{Op: BRANCH, Imm: off} }

// Halt builds HALT.
func Halt() Instr { return Instr{Op: HALT} }

// WithArgs builds a coarse/offload/transfer/track instruction.
func WithArgs(op Opcode, args ...Reg) Instr { return Instr{Op: op, Args: args} }
