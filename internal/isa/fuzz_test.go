package isa

import "testing"

// FuzzAssemble feeds arbitrary text to Assemble. Whatever it accepts must
// pass Validate and come back as the same instructions through both of the
// program's other forms: Disassemble→Assemble and EncodeProgram→
// DecodeProgram. Anything else must be an error, never a panic. The seeds
// are the assembly the other tests in this package use.
func FuzzAssemble(f *testing.F) {
	for _, src := range append([]string{fig13Style, commentedSource, Disassemble(sampleProgram())}, badSources...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			if p != nil {
				t.Fatalf("Assemble returned a program with error %v", err)
			}
			return
		}
		if p == nil {
			t.Fatal("Assemble returned neither a program nor an error")
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("assembled program fails Validate: %v", err)
		}
		text := Disassemble(p)
		q, err := Assemble(p.Tile, text)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%s", err, text)
		}
		sameInstrs(t, "Disassemble→Assemble", p.Instrs, q.Instrs)
		d, err := DecodeProgram(p.Tile, EncodeProgram(p))
		if err != nil {
			t.Fatalf("encoding does not decode: %v", err)
		}
		sameInstrs(t, "EncodeProgram→DecodeProgram", p.Instrs, d.Instrs)
	})
}

// sameInstrs fails t unless got holds the instructions of want, field by
// field (an empty argument list equals a nil one).
func sameInstrs(t *testing.T, via string, want, got []Instr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d instructions, want %d", via, len(got), len(want))
	}
	for pc, w := range want {
		g := got[pc]
		same := g.Op == w.Op && g.Dst == w.Dst && g.Src1 == w.Src1 && g.Src2 == w.Src2 &&
			g.Imm == w.Imm && len(g.Args) == len(w.Args)
		for i := 0; same && i < len(w.Args); i++ {
			same = g.Args[i] == w.Args[i]
		}
		if !same {
			t.Fatalf("%s: pc %d is %+v, want %+v", via, pc, g, w)
		}
	}
}
