package emu

import (
	"slices"
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

// TestHookWindowsArmApart: two hooks whose windows lie far apart arm
// only their own windows. The chained fetch hook runs on exactly the
// steps of the two windows, the fast path covers the gap between them,
// and the config still reports their union as its hook window.
func TestHookWindowsArmApart(t *testing.T) {
	src := `
.text
_start:
	mov rcx, 100
loop:
	dec rcx
	jne loop
	mov rax, 60
	mov rdi, 0
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first, second []uint64
	cfg := Config{}
	cfg.AddFetchHookWindow(func(m *Machine) { first = append(first, m.Steps) }, 3, 5)
	cfg.AddFetchHookWindow(func(m *Machine) { second = append(second, m.Steps) }, 150, 153)
	if start, end := cfg.HookWindow(); start != 3 || end != 153 {
		t.Errorf("HookWindow = [%d, %d), want the union [3, 153)", start, end)
	}
	m := New(bin, cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 204 || res.ExitCode != 0 {
		t.Fatalf("run = %d steps, exit %d; want 204 steps, exit 0", res.Steps, res.ExitCode)
	}
	if m.HooksInertAt() != 153 {
		t.Errorf("HooksInertAt = %d, want 153", m.HooksInertAt())
	}
	want := []uint64{3, 4, 150, 151, 152} // (5-3) + (153-150) steps
	if !slices.Equal(first, want) || !slices.Equal(second, want) {
		t.Errorf("chained fetch hook ran on steps %v and %v, want %v", first, second, want)
	}
}

// TestArmWindowsMerge: the arming list stays sorted and disjoint,
// merges overlapping and touching windows, drops empty ones, and
// collapses to the union when a window would overflow it.
func TestArmWindowsMerge(t *testing.T) {
	type win = struct{ start, end uint64 }
	for _, tc := range []struct {
		add  []win
		want []win
	}{
		{nil, nil},
		{[]win{{5, 5}}, nil},
		{[]win{{10, 12}, {3, 4}}, []win{{3, 4}, {10, 12}}},
		{[]win{{3, 5}, {5, 9}}, []win{{3, 9}}},
		{[]win{{3, 5}, {10, 12}, {4, 11}}, []win{{3, 12}}},
		{[]win{{20, 30}, {1, 2}, {25, 40}, {8, 9}}, []win{{1, 2}, {8, 9}, {20, 40}}},
		{[]win{{0, 1}, {2, 3}, {4, 5}, {6, 7}}, []win{{0, 1}, {2, 3}, {4, 5}, {6, 7}}},
		{[]win{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}, []win{{0, 9}}},
		{[]win{{2, 3}, {4, 5}, {6, 7}, {8, 9}, {0, 1}}, []win{{0, 9}}},
		{[]win{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {3, 4}}, []win{{0, 1}, {2, 5}, {6, 7}}},
		{[]win{{0, 1}, {100, ^uint64(0)}}, []win{{0, 1}, {100, ^uint64(0)}}},
	} {
		var a armWindows
		for _, w := range tc.add {
			a.add(w.start, w.end)
		}
		if got := a.w[:a.n]; !slices.Equal(got, tc.want) {
			t.Errorf("add %v: windows %v, want %v", tc.add, got, tc.want)
		}
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
