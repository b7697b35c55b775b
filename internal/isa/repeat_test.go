package isa

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// repeatedProgram has the compiler's shape: a counter, a section that
// runs three times per iteration (an LDRI-staged MEMSET whose address
// steps 10 per copy), then the counter's decrement, a branch back to the
// section's first copy and HALT. Its stream is 16 instructions long:
//
//	0      LDRI r1, 2
//	1–4    copy 0: LDRI r8, 100; LDRI r9, 4; LDRI r10, 0; MEMSET
//	5–8    copy 1: LDRI r8, 110; ...
//	9–12   copy 2: LDRI r8, 120; ...
//	13     SUBRI r1, r1, 1
//	14     BGTZ r1, -14 (to pc 1)
//	15     HALT
func repeatedProgram() *Program {
	return &Program{Tile: "rep", Instrs: []Instr{
		Ldri(1, 2),
		Ldri(8, 100),
		Ldri(9, 4),
		Ldri(10, 0),
		WithArgs(MEMSET, 8, 9, 9, 10),
		Subri(1, 1, 1),
		Bgtz(1, -14),
		Halt(),
	}, Repeat: Repeat{Lo: 1, Len: 4, N: 3, Stride: []int64{10, 0, 0, 0}}}
}

func TestRepeatLenLocateAt(t *testing.T) {
	p := repeatedProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Len(); got != 16 {
		t.Fatalf("Len() = %d, want 16", got)
	}
	for _, c := range []struct{ pc, idx, k int }{
		{0, 0, 0}, {1, 1, 0}, {4, 4, 0}, {5, 1, 1}, {8, 4, 1}, {9, 1, 2}, {12, 4, 2}, {13, 5, 0}, {15, 7, 0},
	} {
		if idx, k := p.Locate(c.pc); idx != c.idx || k != c.k {
			t.Errorf("Locate(%d) = %d, %d; want %d, %d", c.pc, idx, k, c.idx, c.k)
		}
	}
	for pc, imm := range map[int]int32{1: 100, 5: 110, 9: 120, 6: 4, 14: -14} {
		if got := p.at(pc).Imm; got != imm {
			t.Errorf("at(%d).Imm = %d, want %d", pc, got, imm)
		}
	}
}

// TestExpandLaysOutCopies: Expand lays the stream out as a plain program,
// and returns a plain program (N ≤ 1) unchanged.
func TestExpandLaysOutCopies(t *testing.T) {
	p := repeatedProgram()
	e := p.Expand()
	if e.Repeat.N > 1 || len(e.Instrs) != p.Len() {
		t.Fatalf("Expand: %d instructions, repeat %+v; want %d, plain", len(e.Instrs), e.Repeat, p.Len())
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	for pc := range e.Instrs {
		if !reflect.DeepEqual(e.Instrs[pc], p.at(pc)) {
			t.Errorf("pc %d: %v, want %v", pc, e.Instrs[pc], p.at(pc))
		}
	}
	once := repeatedProgram()
	once.Repeat.N = 1
	for _, q := range []*Program{once, sampleProgram(), e} {
		if q.Expand() != q {
			t.Errorf("%s: Expand of a plain program is a new program", q.Tile)
		}
	}
}

// TestRepeatedFormsMatchExpansion: the binary, the text, the code size and
// the instruction mix of a repeated program are those of its expansion,
// and decoding or assembling them gives the expansion back.
func TestRepeatedFormsMatchExpansion(t *testing.T) {
	p := repeatedProgram()
	e := p.Expand()
	bin := EncodeProgram(p)
	if !bytes.Equal(bin, EncodeProgram(e)) {
		t.Error("EncodeProgram differs from the expansion's")
	}
	if CodeBytes(p) != CodeBytes(e) || CodeBytes(p) != len(bin) {
		t.Errorf("CodeBytes %d, expansion %d, encoded %d", CodeBytes(p), CodeBytes(e), len(bin))
	}
	text := Disassemble(p)
	if text != Disassemble(e) {
		t.Errorf("Disassemble differs from the expansion's:\n%s\n%s", text, Disassemble(e))
	}
	if !reflect.DeepEqual(p.CountByGroup(), e.CountByGroup()) {
		t.Errorf("CountByGroup %v, expansion %v", p.CountByGroup(), e.CountByGroup())
	}
	d, err := DecodeProgram(p.Tile, bin)
	if err != nil {
		t.Fatal(err)
	}
	sameInstrs(t, "EncodeProgram→DecodeProgram", e.Instrs, d.Instrs)
	a, err := Assemble(p.Tile, text)
	if err != nil {
		t.Fatal(err)
	}
	sameInstrs(t, "Disassemble→Assemble", e.Instrs, a.Instrs)
}

// TestValidateRefusesMalformedRepeats: each malformed repeat is refused,
// and branch targets count pcs of the stream.
func TestValidateRefusesMalformedRepeats(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(p *Program)
	}{
		{"negative lo", func(p *Program) { p.Repeat.Lo = -1 }},
		{"negative length", func(p *Program) { p.Repeat.Len, p.Repeat.Stride = -1, nil }},
		{"negative count", func(p *Program) { p.Repeat.N = -1 }},
		{"section past the end", func(p *Program) { p.Repeat.Lo = 5 }},
		{"empty section", func(p *Program) { p.Repeat.Len, p.Repeat.Stride = 0, nil }},
		{"stream length overflow", func(p *Program) { p.Repeat.N = math.MaxInt }},
		{"short stride", func(p *Program) { p.Repeat.Stride = p.Repeat.Stride[:3] }},
		{"stride on MEMSET", func(p *Program) { p.Repeat.Stride[3] = 1 }},
		{"last copy past MaxInt32", func(p *Program) { p.Repeat.Stride[0] = 1 << 30 }},
		{"last copy past MinInt32", func(p *Program) { p.Repeat.Stride[0] = -(1 << 30) - 100 }},
		{"branch inside the section", func(p *Program) { p.Instrs[3] = Bgtz(10, 0) }},
		{"branch past the stream", func(p *Program) { p.Instrs[6] = Bgtz(1, 2) }},
		{"branch before the stream", func(p *Program) { p.Instrs[6] = Bgtz(1, -16) }},
	} {
		p := repeatedProgram()
		c.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, p.Repeat)
		}
	}
	// A branch may reach any pc of the stream, its end included, which
	// lies past the stored instructions; and the extreme copies of a
	// stride that stays in range are accepted.
	for _, c := range []struct {
		name   string
		mutate func(p *Program)
	}{
		{"forward to the stream's end", func(p *Program) { p.Instrs[0] = Branch(15) }},
		{"last copy at MaxInt32", func(p *Program) { p.Repeat.Stride[0] = (math.MaxInt32 - 100) / 2 }},
		{"last copy at MinInt32", func(p *Program) { p.Repeat.Stride[0] = (math.MinInt32 - 100) / 2 }},
		{"no strides", func(p *Program) { p.Repeat.Stride = nil }},
	} {
		p := repeatedProgram()
		c.mutate(p)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
