package isa

import (
	"fmt"
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
type Program struct {
	Tile   string
	Instrs []Instr
}

// Validate checks every instruction and that the program is HALT-terminated.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Tile)
	}
	for pc, ins := range p.Instrs {
		if err := ins.Validate(); err != nil {
			return fmt.Errorf("isa: %q pc=%d: %w", p.Tile, pc, err)
		}
		// Branch targets must stay inside the program.
		switch ins.Op {
		case BEQZ, BNEZ, BGTZ, BRANCH:
			t := pc + 1 + int(ins.Imm)
			if t < 0 || t > len(p.Instrs) {
				return fmt.Errorf("isa: %q pc=%d: branch target %d out of range", p.Tile, pc, t)
			}
		}
	}
	if p.Instrs[len(p.Instrs)-1].Op != HALT {
		return fmt.Errorf("isa: program %q does not end in HALT", p.Tile)
	}
	return nil
}

// CountByGroup tallies instructions per group — the mix statistics the
// compiler reports.
func (p *Program) CountByGroup() map[Group]int {
	m := map[Group]int{}
	for _, ins := range p.Instrs {
		m[ins.Op.Group()]++
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
