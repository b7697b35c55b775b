package isa

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding: each instruction is a fixed 8-byte word followed by one
// byte per register argument. This is the format stored in the CompHeavy
// tile's instruction memory; the compiler reports program sizes in it.
//
//	byte 0: opcode
//	byte 1: dst
//	byte 2: src1
//	byte 3: src2
//	bytes 4-7: imm (little-endian int32)
//	bytes 8..: Args registers (ArgCount() bytes)

// EncodedSize returns the encoded byte size of one instruction.
func (i Instr) EncodedSize() int { return 8 + len(i.Args) }

// Encode appends the binary encoding of i to buf.
func (i Instr) Encode(buf []byte) []byte {
	buf = append(buf, byte(i.Op), byte(i.Dst), byte(i.Src1), byte(i.Src2))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(i.Imm))
	for _, a := range i.Args {
		buf = append(buf, byte(a))
	}
	return buf
}

// DecodeInstr decodes one instruction from buf, returning it and the number
// of bytes consumed.
func DecodeInstr(buf []byte) (Instr, int, error) {
	if len(buf) < 8 {
		return Instr{}, 0, fmt.Errorf("isa: truncated instruction (%d bytes)", len(buf))
	}
	op := Opcode(buf[0])
	if !op.Valid() {
		return Instr{}, 0, fmt.Errorf("isa: invalid opcode byte %d", buf[0])
	}
	ins := Instr{
		Op:   op,
		Dst:  Reg(buf[1]),
		Src1: Reg(buf[2]),
		Src2: Reg(buf[3]),
		Imm:  int32(binary.LittleEndian.Uint32(buf[4:8])),
	}
	n := op.ArgCount()
	if len(buf) < 8+n {
		return Instr{}, 0, fmt.Errorf("isa: truncated %s arguments", op)
	}
	for k := 0; k < n; k++ {
		ins.Args = append(ins.Args, Reg(buf[8+k]))
	}
	return ins, 8 + n, nil
}

// EncodeProgram serializes a whole program: the stream it runs, its
// repeated section laid out once per copy.
func EncodeProgram(p *Program) []byte {
	buf := make([]byte, 0, CodeBytes(p))
	for pc, n := 0, p.Len(); pc < n; pc++ {
		buf = p.at(pc).Encode(buf)
	}
	return buf
}

// DecodeProgram parses a serialized program into a plain program.
func DecodeProgram(tile string, buf []byte) (*Program, error) {
	p := &Program{Tile: tile}
	for len(buf) > 0 {
		ins, n, err := DecodeInstr(buf)
		if err != nil {
			return nil, err
		}
		p.Instrs = append(p.Instrs, ins)
		buf = buf[n:]
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// CodeBytes returns the instruction-memory footprint of a program: the
// encoded size of the stream it runs.
func CodeBytes(p *Program) int {
	n := 0
	for idx, ins := range p.Instrs {
		n += p.times(idx) * ins.EncodedSize()
	}
	return n
}
