package emu

import (
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/isa"
)

// TestAddStepHookChains: chained step hooks all run, and any ActSkip in
// the chain skips the instruction.
func TestAddStepHookChains(t *testing.T) {
	src := `
.text
_start:
	mov rdi, 0
	mov rdi, 1
	mov rax, 60
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var calls [2]int
	cfg := Config{}
	cfg.AddStepHookWindow(func(m *Machine, in *isa.Inst) StepAction {
		calls[0]++
		return ActContinue
	}, 0, ^uint64(0))
	cfg.AddStepHookWindow(func(m *Machine, in *isa.Inst) StepAction {
		calls[1]++
		if m.Steps-1 == 1 { // skip "mov rdi, 1"
			return ActSkip
		}
		return ActContinue
	}, 0, ^uint64(0))
	res, err := New(bin, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Errorf("exit = %d, want 0 (second hook's skip not honored)", res.ExitCode)
	}
	if calls[0] != int(res.Steps) || calls[1] != int(res.Steps) {
		t.Errorf("hook calls = %v, want both %d", calls, res.Steps)
	}
}

// TestAddStepHookFirstSkipWins: a skip decided by the first hook
// survives chaining a passive second hook.
func TestAddStepHookFirstSkipWins(t *testing.T) {
	src := `
.text
_start:
	mov rdi, 0
	mov rdi, 1
	mov rax, 60
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.AddStepHookWindow(func(m *Machine, in *isa.Inst) StepAction {
		if m.Steps-1 == 1 {
			return ActSkip
		}
		return ActContinue
	}, 0, ^uint64(0))
	cfg.AddStepHookWindow(func(m *Machine, in *isa.Inst) StepAction { return ActContinue }, 0, ^uint64(0))
	res, err := New(bin, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Errorf("exit = %d, want 0 (first hook's skip dropped by chaining)", res.ExitCode)
	}
}

// TestAddFetchHookChains: both fetch hooks observe every fetch.
func TestAddFetchHookChains(t *testing.T) {
	src := `
.text
_start:
	mov rax, 60
	mov rdi, 7
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	cfg := Config{}
	cfg.AddFetchHookWindow(func(m *Machine) { a++ }, 0, ^uint64(0))
	cfg.AddFetchHookWindow(func(m *Machine) { b++ }, 0, ^uint64(0))
	res, err := New(bin, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a != int(res.Steps) || b != int(res.Steps) {
		t.Errorf("fetch hook calls = (%d, %d), want both %d", a, b, res.Steps)
	}
}

// TestFlipRegBit: flipping a register bit from a step hook changes the
// observable behaviour exactly as a register fault should.
func TestFlipRegBit(t *testing.T) {
	src := `
.text
_start:
	mov rdi, 0
	mov rax, 60
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.AddStepHookWindow(func(m *Machine, in *isa.Inst) StepAction {
		if m.Steps-1 == 2 { // just before the exit syscall executes
			m.FlipRegBit(isa.RDI, 2)
		}
		return ActContinue
	}, 0, ^uint64(0))
	res, err := New(bin, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 4 {
		t.Errorf("exit = %d, want 4 (rdi bit 2 flipped)", res.ExitCode)
	}
}

// TestOperandAddr: the exported effective-address computation matches
// what execution actually accesses, including RIP-relative operands.
func TestOperandAddr(t *testing.T) {
	src := `
.text
_start:
	mov rax, [rip+cell]
	mov rdi, rax
	mov rax, 60
	syscall
.rodata
cell: .byte 9
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	cfg := Config{}
	cfg.AddStepHookWindow(func(m *Machine, in *isa.Inst) StepAction {
		if m.Steps-1 == 0 {
			if mem := in.MemOperand(); mem != nil {
				got = m.OperandAddr(in, mem)
			}
		}
		return ActContinue
	}, 0, ^uint64(0))
	m := New(bin, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	b, err := m.Mem.Peek(got)
	if err != nil {
		t.Fatalf("OperandAddr returned unmapped address %#x: %v", got, err)
	}
	if b != 9 {
		t.Errorf("byte at operand address %#x = %d, want 9", got, b)
	}
}

// TestFlipDataBitPreservesCodeCache: data-cell pokes must not bump the
// code generation (that would evict shared decode caches on every
// data-fault injection), while pokes into executable pages still must.
func TestFlipDataBitPreservesCodeCache(t *testing.T) {
	mem := NewMemory()
	mem.Map(0x1000, 0x1000, elf.FlagRead|elf.FlagWrite)  // data
	mem.Map(0x401000, 0x1000, elf.FlagRead|elf.FlagExec) // code
	if err := mem.Write(0x1000, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	gen := mem.CodeGeneration()
	if err := mem.FlipDataBit(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if mem.CodeGeneration() != gen {
		t.Error("data-page flip bumped the code generation")
	}
	b, _ := mem.Peek(0x1000)
	if b != 0xA8 {
		t.Errorf("byte = %#x, want 0xA8", b)
	}
	if err := mem.FlipDataBit(0x401000, 0); err != nil {
		t.Fatal(err)
	}
	if mem.CodeGeneration() == gen {
		t.Error("exec-page flip did not bump the code generation")
	}
	if err := mem.FlipDataBit(0x9999_0000, 0); err == nil {
		t.Error("flip of unmapped address succeeded")
	}
}

// TestFlipDataBitCOW: a data flip on a machine resumed from a snapshot
// clones the page; the snapshot's view stays pristine.
func TestFlipDataBitCOW(t *testing.T) {
	src := `
.text
_start:
	mov rax, 60
	mov rdi, 0
	syscall
.rodata
cell: .byte 5
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(bin, Config{})
	var addr uint64
	for _, s := range bin.Sections {
		if s.Name == ".rodata" {
			addr = s.Addr
		}
	}
	if addr == 0 {
		t.Fatal("no .rodata section")
	}
	snap := m.Snapshot()
	forked := snap.Resume(Config{})
	if err := forked.Mem.FlipDataBit(addr, 1); err != nil {
		t.Fatal(err)
	}
	if b, _ := forked.Mem.Peek(addr); b != 7 {
		t.Errorf("forked byte = %d, want 7", b)
	}
	pristine := snap.Resume(Config{})
	if b, _ := pristine.Mem.Peek(addr); b != 5 {
		t.Errorf("snapshot byte = %d after fork mutation, want 5 (COW broken)", b)
	}
}
