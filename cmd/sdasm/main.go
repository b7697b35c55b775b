// Command sdasm is the ScaleDeep assembler / disassembler, completing the
// ISA toolchain (Fig. 8): it assembles the textual assembly that
// sdcompile/Fig. 13 print into the binary instruction-memory format, and
// disassembles binaries back.
//
// Usage:
//
//	sdasm -asm file.sds        # assemble text → binary (hex on stdout)
//	sdasm -dis file.bin        # disassemble binary → text
//	sdasm -check file.sds      # validate only (exit status reports result)
//	sdasm -demo                # round-trip a generated demo program
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/isa"
	"scaledeep/internal/tensor"
)

func main() {
	asm := flag.String("asm", "", "assemble a .sds text file, print hex binary")
	dis := flag.String("dis", "", "disassemble a binary (hex) file")
	check := flag.String("check", "", "validate a .sds text file")
	demo := flag.Bool("demo", false, "compile a demo net and round-trip one program")
	flag.Parse()

	switch {
	case *asm != "":
		src, err := os.ReadFile(*asm)
		die(err)
		p, err := isa.Assemble(*asm, string(src))
		die(err)
		fmt.Println(hex.EncodeToString(isa.EncodeProgram(p)))
		fmt.Fprintf(os.Stderr, "%d instructions, %d bytes\n", len(p.Instrs), isa.CodeBytes(p))
	case *dis != "":
		raw, err := os.ReadFile(*dis)
		die(err)
		buf, err := hex.DecodeString(trimWS(string(raw)))
		die(err)
		p, err := isa.DecodeProgram(*dis, buf)
		die(err)
		fmt.Print(isa.Disassemble(p))
	case *check != "":
		src, err := os.ReadFile(*check)
		die(err)
		p, err := isa.Assemble(*check, string(src))
		die(err)
		fmt.Printf("%s: OK (%d instructions", *check, len(p.Instrs))
		for g, n := range p.CountByGroup() {
			fmt.Printf(", %d %v", n, g)
		}
		fmt.Println(")")
	case *demo:
		b := dnn.NewBuilder("asmdemo")
		in := b.Input(2, 8, 8)
		c1 := b.Conv(in, "c1", 4, 3, 1, 1, tensor.ActReLU)
		f1 := b.FC(c1, "f1", 4, tensor.ActNone)
		_ = f1
		net := b.Build()
		chip := arch.Baseline().Cluster.Conv
		chip.Rows, chip.Cols = 3, 4
		c, err := compiler.Compile(net, chip, compiler.Options{Minibatch: 1, Training: true, LR: 0.0625})
		die(err)
		progs := make([]*isa.Program, 0, len(c.Programs))
		for _, p := range c.Programs {
			progs = append(progs, p)
		}
		slices.SortFunc(progs, func(a, b *isa.Program) int { return strings.Compare(a.Tile, b.Tile) })
		for _, p := range progs {
			text := isa.Disassemble(p)
			q, err := isa.Assemble(p.Tile, text)
			die(err)
			bin := isa.EncodeProgram(q)
			r, err := isa.DecodeProgram(p.Tile, bin)
			die(err)
			if len(r.Instrs) != p.Len() {
				die(fmt.Errorf("round trip length mismatch for %s", p.Tile))
			}
			fmt.Printf("%-14s %4d instructions, %5d bytes — text+binary round trip OK\n",
				p.Tile, p.Len(), len(bin))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func trimWS(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\n', '\r', '\t':
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
