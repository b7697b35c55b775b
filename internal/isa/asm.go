package isa

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Disassemble renders a program as text, one instruction per line with pc
// prefixes — the format the paper's Fig. 13 listing uses. A repeated
// section is listed once per copy, as the stream runs it.
func Disassemble(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- Program for %s ---\n", p.Tile)
	for pc, n := 0, p.Len(); pc < n; pc++ {
		fmt.Fprintf(&b, "%4d:  %s\n", pc, p.at(pc).String())
	}
	return b.String()
}

// Assemble parses the Disassemble format (or hand-written assembly without
// pc prefixes) back into a plain Program. Blank lines and lines starting with '#'
// or ';' are ignored.
func Assemble(tile, src string) (*Program, error) {
	p := &Program{Tile: tile}
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		// Strip trailing comments.
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" || strings.HasPrefix(line, "---") {
			continue
		}
		// Strip an optional "NN:" pc prefix.
		if i := strings.Index(line, ":"); i >= 0 {
			if _, err := strconv.Atoi(strings.TrimSpace(line[:i])); err == nil {
				line = strings.TrimSpace(line[i+1:])
			}
		}
		ins, err := parseInstr(line)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNo, err)
		}
		p.Instrs = append(p.Instrs, ins)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseInstr(line string) (Instr, error) {
	fields := strings.SplitN(line, " ", 2)
	op, ok := Lookup(fields[0])
	if !ok {
		return Instr{}, fmt.Errorf("unknown mnemonic %q", fields[0])
	}
	ins := Instr{Op: op}
	var operands []string
	if len(fields) == 2 {
		for _, tok := range strings.Split(fields[1], ",") {
			tok = strings.TrimSpace(tok)
			if tok != "" {
				operands = append(operands, tok)
			}
		}
	}
	info := opTable[op]
	want := 0
	if info.hasDst {
		want++
	}
	want += info.numSrc
	if info.hasImm {
		want++
	}
	want += info.numArgs
	if len(operands) != want {
		return Instr{}, fmt.Errorf("%s wants %d operands, got %d", op, want, len(operands))
	}
	idx := 0
	next := func() string { s := operands[idx]; idx++; return s }
	var err error
	if info.hasDst {
		if ins.Dst, err = parseReg(next()); err != nil {
			return Instr{}, err
		}
	}
	if info.numSrc >= 1 {
		if ins.Src1, err = parseReg(next()); err != nil {
			return Instr{}, err
		}
	}
	if info.numSrc >= 2 {
		if ins.Src2, err = parseReg(next()); err != nil {
			return Instr{}, err
		}
	}
	if info.hasImm {
		v, err := strconv.ParseInt(next(), 10, 32)
		if err != nil {
			return Instr{}, fmt.Errorf("bad immediate: %w", err)
		}
		ins.Imm = int32(v)
	}
	for i := 0; i < info.numArgs; i++ {
		r, err := parseReg(next())
		if err != nil {
			return Instr{}, err
		}
		ins.Args = append(ins.Args, r)
	}
	return ins, nil
}

func parseReg(s string) (Reg, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	v, err := strconv.Atoi(s[1:])
	if err != nil || v < 0 || v >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(v), nil
}
