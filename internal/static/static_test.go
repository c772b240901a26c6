package static

import (
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/isa"
)

// analyze assembles a program and runs the full analysis.
func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	a, err := Analyze(bin)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// sym resolves a label to its address.
func sym(t *testing.T, bin *elf.Binary, name string) uint64 {
	t.Helper()
	addr, ok := bin.SymbolAddr(name)
	if !ok {
		t.Fatalf("symbol %q not found", name)
	}
	return addr
}

const diamondSrc = `
.text
_start:
	mov rax, 1
	cmp rax, 1
	jne miss
	mov rdi, 0
	jmp done
miss:
	mov rdi, 42
done:
	mov rax, 60
	syscall
`

func TestCFGDiamond(t *testing.T) {
	a := analyze(t, diamondSrc)
	g := a.CFG
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	entry := g.Entry
	if entry == nil || entry.Start != a.Prog.Entry {
		t.Fatalf("entry block = %+v", entry)
	}
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %d, want 2", len(entry.Succs))
	}
	miss := g.BlockAt(sym(t, a.Bin, "miss"))
	done := g.BlockAt(sym(t, a.Bin, "done"))
	if miss == nil || done == nil {
		t.Fatalf("miss/done blocks missing")
	}
	if len(done.Preds) != 2 {
		t.Fatalf("done preds = %d, want 2", len(done.Preds))
	}
	if !g.Reachable()[miss.Start] {
		t.Errorf("miss not reachable")
	}
	// The final syscall is a proven exit (RAX=60 is straight-line) but
	// the exit code joins from two arms, so it stays unknown.
	var sc uint64
	for addr, in := range a.Prog.Insts {
		if in.Op == isa.SYSCALL {
			sc = addr
		}
	}
	e, ok := a.Prog.Exits[sc]
	if !ok || !e.Definite || e.CodeKnown {
		t.Errorf("exit classification = %+v ok=%v, want definite unknown-code", e, ok)
	}
	if !a.Prog.IsTerminal(sc) {
		t.Errorf("proven exit syscall must be terminal")
	}
}

func TestDominators(t *testing.T) {
	a := analyze(t, diamondSrc)
	g := a.CFG
	entry := g.Entry
	miss := g.BlockAt(sym(t, a.Bin, "miss"))
	done := g.BlockAt(sym(t, a.Bin, "done"))
	if !entry.Dominates(done) || !entry.Dominates(miss) || !entry.Dominates(entry) {
		t.Errorf("entry should dominate every block")
	}
	if miss.Dominates(done) {
		t.Errorf("miss must not dominate done (fall-through path exists)")
	}
	if done.Idom() != entry {
		t.Errorf("idom(done) = %v, want entry", done.Idom())
	}
	if done.Dominates(entry) {
		t.Errorf("done must not dominate entry")
	}
}

func TestTransparent(t *testing.T) {
	cases := []struct {
		op   isa.Op
		want bool
	}{
		{isa.NOP, true}, {isa.JMP, true}, {isa.JCC, true},
		{isa.MOV, false}, {isa.CALL, false}, {isa.PUSH, false},
	}
	for _, c := range cases {
		if got := Transparent(isa.Inst{Op: c.op}); got != c.want {
			t.Errorf("Transparent(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestEffectsTable(t *testing.T) {
	mk := func(op isa.Op, dst, src isa.Operand) isa.Inst {
		return isa.Inst{Op: op, Dst: dst, Src: src}
	}
	reg := func(r isa.Reg, w uint8) isa.Operand {
		return isa.Operand{Kind: isa.KindReg, Reg: r, Width: w}
	}
	imm := func(v int64) isa.Operand { return isa.Operand{Kind: isa.KindImm, Imm: v} }

	// Full-width mov writes the destination.
	w := EffectsOf(mk(isa.MOV, reg(isa.RAX, 8), reg(isa.RBX, 8)))
	if !w.Has(RegBit(isa.RAX)) {
		t.Errorf("mov rax, rbx writes %#x", w)
	}
	// 1-byte writes merge into the register: still a write.
	w = EffectsOf(mk(isa.MOV, reg(isa.RAX, 1), imm(7)))
	if !w.Has(RegBit(isa.RAX)) {
		t.Errorf("mov al, 7 writes %#x", w)
	}
	// inc preserves CF: the flags unit is written partially.
	w = EffectsOf(mk(isa.INC, reg(isa.RAX, 8), isa.Operand{}))
	if !w.Has(Flags) {
		t.Errorf("inc rax writes %#x", w)
	}
	// Shift by zero leaves flags untouched; nonzero writes them.
	w = EffectsOf(mk(isa.SHL, reg(isa.RAX, 8), imm(0)))
	if w.Has(Flags) {
		t.Errorf("shl rax, 0 must not touch flags: %#x", w)
	}
	w = EffectsOf(mk(isa.SHL, reg(isa.RAX, 8), imm(3)))
	if !w.Has(Flags) {
		t.Errorf("shl rax, 3 must write flags: %#x", w)
	}
	// adc writes the flags it also reads.
	w = EffectsOf(mk(isa.ADC, reg(isa.RAX, 8), reg(isa.RBX, 8)))
	if !w.Has(Flags) {
		t.Errorf("adc writes %#x", w)
	}
	// syscall clobbers rax/rcx/r11.
	w = EffectsOf(isa.Inst{Op: isa.SYSCALL})
	if !w.Has(RegBit(isa.RAX)) || !w.Has(RegBit(isa.RCX)) || !w.Has(RegBit(isa.R11)) {
		t.Errorf("syscall writes %#x", w)
	}
}

func TestExploreUndecoded(t *testing.T) {
	// A jump into the data section: reachable but undecodable, recorded
	// as a terminal node rather than failing the analysis.
	a := analyze(t, `
.text
_start:
	mov rax, 1
	cmp rax, 2
	jne out
	mov rax, 60
	mov rdi, 0
	syscall
out:
	jmp blob
.rodata
blob: .byte 0x06, 0x06, 0x06, 0x06
`)
	blob := sym(t, a.Bin, "blob")
	if _, ok := a.Prog.Undecoded[blob]; !ok {
		t.Fatalf("blob should be recorded undecoded")
	}
	if !a.Prog.IsTerminal(blob) {
		t.Errorf("undecoded address must be terminal")
	}
	if b := a.CFG.BlockAt(blob); b == nil || len(b.Succs) != 0 {
		t.Errorf("undecoded block should exist with no successors")
	}
}
