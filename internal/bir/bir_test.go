package bir

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/isa"
)

const pincheckSrc = `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 8
	syscall
	mov rax, [rip+buf]
	mov rbx, [rip+pin]
	cmp rax, rbx
	jne deny
grant:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+ok]
	mov rdx, 8
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
deny:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+no]
	mov rdx, 7
	syscall
	mov rax, 60
	mov rdi, 1
	syscall
.rodata
pin: .ascii "1234ABCD"
ok:  .ascii "GRANTED\n"
no:  .ascii "DENIED\n"
.bss
buf: .zero 8
`

func build(t *testing.T, src string) *elf.Binary {
	t.Helper()
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func runBin(t *testing.T, bin *elf.Binary, stdin []byte) (emu.Result, error) {
	t.Helper()
	return emu.New(bin, emu.Config{Stdin: stdin}).Run()
}

func TestDisassembleBlocks(t *testing.T) {
	prog, err := Disassemble(build(t, pincheckSrc))
	if err != nil {
		t.Fatal(err)
	}
	if prog.EntryLabel != "_start" {
		t.Errorf("entry label = %q", prog.EntryLabel)
	}
	// Named blocks survive from the symbol table.
	for _, want := range []string{"_start", "grant", "deny"} {
		if prog.Block(want) == nil {
			t.Errorf("block %q missing; listing:\n%s", want, prog.Listing())
		}
	}
	// The jne must carry a symbolic target.
	var jne *Inst
	for _, b := range prog.Blocks {
		for i := range b.Insts {
			if b.Insts[i].I.Op == isa.JCC {
				jne = &b.Insts[i]
			}
		}
	}
	if jne == nil || jne.TargetLabel != "deny" {
		t.Fatalf("jne not symbolized: %+v", jne)
	}
	// RIP-relative loads must carry absolute data targets.
	bin := build(t, pincheckSrc)
	pinAddr, _ := bin.SymbolAddr("pin")
	found := false
	for _, b := range prog.Blocks {
		for _, in := range b.Insts {
			if in.DataTarget == pinAddr {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no instruction references pin at %#x", pinAddr)
	}
}

// TestRoundTripBehaviour: disassemble + reassemble must preserve
// behaviour bit-for-bit on both inputs.
func TestRoundTripBehaviour(t *testing.T) {
	orig := build(t, pincheckSrc)
	prog, err := Disassemble(orig)
	if err != nil {
		t.Fatal(err)
	}
	re, err := prog.Reassemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{"1234ABCD", "00000000", "", "1234ABCX"} {
		r1, e1 := runBin(t, orig, []byte(input))
		r2, e2 := runBin(t, re, []byte(input))
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("input %q: error mismatch %v vs %v", input, e1, e2)
		}
		if string(r1.Stdout) != string(r2.Stdout) || r1.ExitCode != r2.ExitCode {
			t.Errorf("input %q: (%q,%d) vs (%q,%d)", input, r1.Stdout, r1.ExitCode, r2.Stdout, r2.ExitCode)
		}
	}
}

// TestRoundTripIdenticalBytes: reassembling without edits reproduces a
// byte-identical text section (all branches were already rel32).
func TestRoundTripIdenticalBytes(t *testing.T) {
	orig := build(t, pincheckSrc)
	prog, err := Disassemble(orig)
	if err != nil {
		t.Fatal(err)
	}
	re, err := prog.Reassemble()
	if err != nil {
		t.Fatal(err)
	}
	a := orig.Text().Data
	b := re.Text().Data
	if len(a) != len(b) {
		t.Fatalf("text size %d -> %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("text differs at +%#x: %#x vs %#x", i, a[i], b[i])
		}
	}
}

// TestInsertionMovesCode: inserting instructions early in the program
// shifts everything, and the reassembler must fix all displacements.
func TestInsertionMovesCode(t *testing.T) {
	orig := build(t, pincheckSrc)
	prog, err := Disassemble(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a large, behaviour-neutral prefix in the entry block.
	entry := prog.Block("_start")
	nops := make([]Inst, 100)
	for i := range nops {
		nops[i] = Inst{I: isa.NewInst(isa.NOP), Protected: true}
	}
	entry.Insts = append(nops, entry.Insts...)

	re, err := prog.Reassemble()
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Text().Data) <= len(orig.Text().Data) {
		t.Fatal("text did not grow")
	}
	for _, input := range []string{"1234ABCD", "00000000"} {
		r1, _ := runBin(t, orig, []byte(input))
		r2, err2 := runBin(t, re, []byte(input))
		if err2 != nil {
			t.Fatalf("input %q: rewritten binary crashed: %v", input, err2)
		}
		if string(r1.Stdout) != string(r2.Stdout) || r1.ExitCode != r2.ExitCode {
			t.Errorf("input %q: behaviour changed after insertion", input)
		}
	}
}

func TestReplaceWithBlocks(t *testing.T) {
	prog, err := Disassemble(build(t, pincheckSrc))
	if err != nil {
		t.Fatal(err)
	}
	re, err := prog.Reassemble() // refresh addresses
	if err != nil {
		t.Fatal(err)
	}
	_ = re

	// Find the cmp and replace it with cmp;cmp (a trivial "pattern").
	var ref InstRef
	found := false
	for _, b := range prog.Blocks {
		for i := range b.Insts {
			if b.Insts[i].I.Op == isa.CMP {
				ref = InstRef{Block: b, Index: i}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no cmp found")
	}
	orig := ref.Block.Insts[ref.Index]
	dup := orig
	dup.Protected = true
	before := prog.NumInsts()
	cont := prog.ReplaceWithBlocks(ref, []*Block{{Insts: []Inst{orig, dup}}})
	if cont == "" {
		t.Fatal("no continuation label")
	}
	if prog.NumInsts() != before+1 {
		t.Errorf("inst count %d, want %d", prog.NumInsts(), before+1)
	}
	if prog.Block(cont) == nil {
		t.Errorf("continuation block %q missing", cont)
	}

	re2, err := prog.Reassemble()
	if err != nil {
		t.Fatal(err)
	}
	r, err := runBin(t, re2, []byte("1234ABCD"))
	if err != nil || string(r.Stdout) != "GRANTED\n" {
		t.Errorf("patched binary: %v %q", err, r.Stdout)
	}
}

func TestFindByAddr(t *testing.T) {
	prog, err := Disassemble(build(t, pincheckSrc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Reassemble(); err != nil {
		t.Fatal(err)
	}
	// Every instruction must be findable by its layout address.
	for _, b := range prog.Blocks {
		for i := range b.Insts {
			ref, ok := prog.FindByAddr(b.Insts[i].I.Addr)
			if !ok || ref.Block != b || ref.Index != i {
				t.Fatalf("FindByAddr(%#x) = %+v, %v", b.Insts[i].I.Addr, ref, ok)
			}
		}
	}
	if _, ok := prog.FindByAddr(0xdead); ok {
		t.Error("found instruction at bogus address")
	}
}

func TestAppendBlockAndNewLabel(t *testing.T) {
	prog, err := Disassemble(build(t, pincheckSrc))
	if err != nil {
		t.Fatal(err)
	}
	l1 := prog.NewLabel("fh")
	l2 := prog.NewLabel("fh")
	if l1 == l2 {
		t.Error("NewLabel not unique")
	}
	prog.AppendBlock(&Block{Label: "faulthandler", Insts: []Inst{
		{I: isa.NewInst(isa.MOV, isa.R(isa.RAX), isa.Imm(60)), Protected: true},
		{I: isa.NewInst(isa.MOV, isa.R(isa.RDI), isa.Imm(42)), Protected: true},
		{I: isa.NewInst(isa.SYSCALL), Protected: true},
	}})
	if _, err := prog.Reassemble(); err != nil {
		t.Fatal(err)
	}
	if prog.Block("faulthandler") == nil {
		t.Error("appended block missing")
	}
}

func TestDuplicateLabelRejected(t *testing.T) {
	prog, err := Disassemble(build(t, pincheckSrc))
	if err != nil {
		t.Fatal(err)
	}
	prog.AppendBlock(&Block{Label: "grant"})
	if _, err := prog.Reassemble(); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestUndefinedTargetRejected(t *testing.T) {
	prog, err := Disassemble(build(t, pincheckSrc))
	if err != nil {
		t.Fatal(err)
	}
	prog.Blocks[0].Insts = append(prog.Blocks[0].Insts, Inst{
		I:           isa.NewInst(isa.JMP, isa.Imm(0)),
		TargetLabel: "nowhere",
	})
	if _, err := prog.Reassemble(); !errors.Is(err, ErrUndefLabel) {
		t.Errorf("err = %v, want ErrUndefLabel", err)
	}
}

// TestBadLeaderReportsLowest: of two branch targets inside swept
// instructions, Disassemble names the lower one on every call, whatever
// order its leader map iterates in.
func TestBadLeaderReportsLowest(t *testing.T) {
	bin := build(t, `
.text
_start:
	.byte 0xEB, 0x08
	.byte 0xEB, 0x01
	.byte 0xB8, 0, 0, 0, 0
	.byte 0xB8, 0, 0, 0, 0
	mov rax, 60
	syscall
`)
	// The first jmp lands inside the second mov (text+10), the second
	// inside the first (text+5).
	want := fmt.Sprintf("leader %#x is", bin.Text().Addr+5)
	for i := 0; i < 32; i++ {
		_, err := Disassemble(bin)
		if !errors.Is(err, ErrBadTarget) || !strings.Contains(err.Error(), want) {
			t.Fatalf("call %d: err = %v, want ErrBadTarget naming %q", i, err, want)
		}
	}
}

func TestNoTextSection(t *testing.T) {
	if _, err := Disassemble(&elf.Binary{}); !errors.Is(err, ErrNoText) {
		t.Errorf("err = %v, want ErrNoText", err)
	}
}

func TestListing(t *testing.T) {
	prog, err := Disassemble(build(t, pincheckSrc))
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Listing()
	for _, want := range []string{"_start:", "grant:", "deny:", "jne deny", "syscall"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}

func TestTextOverlapGuard(t *testing.T) {
	prog, err := Disassemble(build(t, pincheckSrc))
	if err != nil {
		t.Fatal(err)
	}
	// Pretend a data section sits right after the text base.
	prog.Data = append(prog.Data, &elf.Section{
		Name: ".crowded", Addr: prog.TextBase + 16, Data: make([]byte, 8), Flags: elf.FlagRead,
	})
	if _, err := prog.Reassemble(); !errors.Is(err, ErrTextOverlap) {
		t.Errorf("err = %v, want ErrTextOverlap", err)
	}
}
