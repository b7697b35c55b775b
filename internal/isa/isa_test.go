package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestISAHas28Instructions(t *testing.T) {
	// Fig. 8 / §3.2.2: "The ISA contains 28 instructions".
	if NumOpcodes != 28 {
		t.Fatalf("NumOpcodes = %d, paper says 28", NumOpcodes)
	}
}

func TestFiveGroupsAllPopulated(t *testing.T) {
	seen := map[Group]int{}
	for op := Opcode(0); op < NumOpcodes; op++ {
		seen[op.Group()]++
	}
	for _, g := range []Group{GroupScalar, GroupCoarse, GroupOffload, GroupTransfer, GroupTrack} {
		if seen[g] == 0 {
			t.Errorf("group %v has no instructions", g)
		}
	}
	if seen[GroupCoarse] != 2 {
		t.Errorf("coarse group has %d instrs, want NDCONV+MATMUL", seen[GroupCoarse])
	}
	if seen[GroupTrack] != 2 {
		t.Errorf("track group has %d instrs", seen[GroupTrack])
	}
}

func TestMnemonicLookupRoundTrip(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		got, ok := Lookup(op.String())
		if !ok || got != op {
			t.Errorf("Lookup(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := Lookup("FROBNICATE"); ok {
		t.Error("unknown mnemonic resolved")
	}
}

// sampleProgram builds one instruction of every opcode (a synthetic but
// valid program) for round-trip testing.
func sampleProgram() *Program {
	var ins []Instr
	for op := Opcode(0); op < NumOpcodes; op++ {
		if op == HALT {
			continue
		}
		i := Instr{Op: op, Dst: 1, Src1: 2, Src2: 3, Imm: 0}
		for k := 0; k < op.ArgCount(); k++ {
			i.Args = append(i.Args, Reg(k+4))
		}
		ins = append(ins, i)
	}
	ins = append(ins, Halt())
	return &Program{Tile: "test.tile", Instrs: ins}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	p := sampleProgram()
	text := Disassemble(p)
	q, err := Assemble(p.Tile, text)
	if err != nil {
		t.Fatalf("Assemble: %v\n%s", err, text)
	}
	if len(q.Instrs) != len(p.Instrs) {
		t.Fatalf("round trip length %d vs %d", len(q.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		if p.Instrs[i].String() != q.Instrs[i].String() {
			t.Errorf("instr %d: %q vs %q", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

func TestBinaryEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProgram()
	buf := EncodeProgram(p)
	if len(buf) != CodeBytes(p) {
		t.Fatalf("CodeBytes %d != encoded %d", CodeBytes(p), len(buf))
	}
	q, err := DecodeProgram(p.Tile, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Instrs {
		if p.Instrs[i].String() != q.Instrs[i].String() {
			t.Errorf("instr %d mismatch after binary round trip", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeInstr([]byte{200, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("invalid opcode accepted")
	}
	if _, _, err := DecodeInstr([]byte{0, 0}); err == nil {
		t.Error("truncated instruction accepted")
	}
	if _, _, err := DecodeInstr(append([]byte{byte(NDCONV)}, make([]byte, 7)...)); err == nil {
		t.Error("truncated args accepted")
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"empty", Program{Tile: "x"}},
		{"no halt", Program{Tile: "x", Instrs: []Instr{Ldri(1, 5)}}},
		{"branch out of range", Program{Tile: "x", Instrs: []Instr{Branch(100), Halt()}}},
		{"wrong arg count", Program{Tile: "x", Instrs: []Instr{WithArgs(NDCONV, 1, 2), Halt()}}},
		{"register overflow", Program{Tile: "x", Instrs: []Instr{Ldri(Reg(200), 1), Halt()}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestBackwardBranchValid(t *testing.T) {
	// The Fig. 13 listing uses negative offsets heavily; a loop must pass.
	p := &Program{Tile: "loop", Instrs: []Instr{
		Ldri(1, 3),
		Subri(1, 1, 1),
		Bgtz(1, -2),
		Halt(),
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// commentedSource mixes comments, a header line and pc prefixes.
const commentedSource = `
# a comment
--- Program for x ---
 0:  LDRI r1, 42
; another comment
 1:  HALT
`

func TestAssembleIgnoresCommentsAndPrefixes(t *testing.T) {
	p, err := Assemble("x", commentedSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 2 || p.Instrs[0].Imm != 42 {
		t.Fatalf("parsed %v", p.Instrs)
	}
}

// badSources are sources Assemble must reject.
var badSources = []string{
	"FNORD r1",
	"LDRI r1",           // missing imm
	"LDRI r99, 1\nHALT", // bad register
	"ADDR r1, r2",       // missing src2
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range badSources {
		if _, err := Assemble("x", src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// Property: any structurally valid instruction survives a binary round trip.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(opRaw, d, s1, s2 uint8, imm int32) bool {
		op := Opcode(int(opRaw) % int(NumOpcodes))
		ins := Instr{Op: op, Dst: Reg(d % NumRegs), Src1: Reg(s1 % NumRegs), Src2: Reg(s2 % NumRegs), Imm: imm}
		for k := 0; k < op.ArgCount(); k++ {
			ins.Args = append(ins.Args, Reg((int(d)+k)%NumRegs))
		}
		buf := ins.Encode(nil)
		got, n, err := DecodeInstr(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.String() == ins.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountByGroup(t *testing.T) {
	p := &Program{Tile: "x", Instrs: []Instr{
		Ldri(1, 1),
		WithArgs(MEMTRACK, 1, 2, 3, 4, 5),
		Halt(),
	}}
	m := p.CountByGroup()
	if m[GroupScalar] != 2 || m[GroupTrack] != 1 {
		t.Fatalf("counts = %v", m)
	}
}

func TestDisassembleHeaderFormat(t *testing.T) {
	p := &Program{Tile: "COR.N0.Ch0.C43", Instrs: []Instr{Halt()}}
	text := Disassemble(p)
	if !strings.Contains(text, "--- Program for COR.N0.Ch0.C43 ---") {
		t.Fatalf("header missing: %s", text)
	}
}
