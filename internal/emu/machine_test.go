package emu

import (
	"errors"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/isa"
)

// run assembles and runs a program, failing the test on assembly errors.
func run(t *testing.T, src string, cfg Config) (Result, error) {
	t.Helper()
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(bin, cfg)
	return m.Run()
}

// mustExit runs a program and requires a clean exit with the given code.
func mustExit(t *testing.T, src string, cfg Config, wantCode int) Result {
	t.Helper()
	res, err := run(t, src, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Exited || res.ExitCode != wantCode {
		t.Fatalf("exit = (%v, %d), want (true, %d)", res.Exited, res.ExitCode, wantCode)
	}
	return res
}

const exitStub = `
	mov rax, 60
	syscall
`

func TestHelloWorld(t *testing.T) {
	src := `
.text
_start:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, msg_len
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
.rodata
msg: .ascii "hello, world\n"
.equ msg_len, . - msg
`
	res := mustExit(t, src, Config{}, 0)
	if string(res.Stdout) != "hello, world\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestReadStdin(t *testing.T) {
	src := `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 8
	syscall
	mov rdi, rax       ; exit code = bytes read
	mov rax, 60
	syscall
.bss
buf: .zero 8
`
	res := mustExit(t, src, Config{Stdin: []byte("abcd")}, 4)
	_ = res
	// Reading again past EOF returns 0.
	src2 := `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 8
	syscall
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 8
	syscall
	mov rdi, rax
	mov rax, 60
	syscall
.bss
buf: .zero 8
`
	mustExit(t, src2, Config{Stdin: []byte("abcd")}, 0)
}

func TestArithmeticAndLoops(t *testing.T) {
	// Sum 1..10 = 55.
	src := `
.text
_start:
	xor rax, rax
	mov rcx, 10
loop:
	add rax, rcx
	dec rcx
	jne loop
	mov rdi, rax
	mov rax, 60
	syscall
`
	mustExit(t, src, Config{}, 55)
}

func TestCallRetStack(t *testing.T) {
	src := `
.text
_start:
	mov rdi, 5
	call double
	call double
	mov rdi, rax
	mov rax, 60
	syscall
double:
	mov rax, rdi
	add rax, rax
	mov rdi, rax
	ret
`
	mustExit(t, src, Config{}, 20)
}

func TestPushPopPushfqPopfq(t *testing.T) {
	src := `
.text
_start:
	mov rbx, 123
	push rbx
	mov rbx, 0
	pop rbx            ; rbx = 123 again
	cmp rbx, 123
	jne bad
	; flags survive pushfq/popfq across a clobbering op
	cmp rbx, 123       ; ZF=1
	pushfq
	cmp rbx, 999       ; ZF=0
	popfq
	jne bad            ; must NOT branch: restored ZF=1
	mov rdi, 0
	mov rax, 60
	syscall
bad:
	mov rdi, 1
	mov rax, 60
	syscall
`
	mustExit(t, src, Config{}, 0)
}

func TestSetccMovzx(t *testing.T) {
	src := `
.text
_start:
	mov rax, 7
	cmp rax, 3
	setg cl            ; 7 > 3 -> cl = 1
	movzx rdi, cl
	cmp rax, 100
	setg cl            ; 7 > 100 -> cl = 0
	movzx rax, cl
	add rdi, rax       ; rdi = 1
	mov rax, 60
	syscall
`
	mustExit(t, src, Config{}, 1)
}

func Test32BitZeroExtension(t *testing.T) {
	// Writing a 32-bit register clears the upper half (x86-64 rule).
	src := `
.text
_start:
	mov rax, -1        ; all ones
	mov eax, 5         ; must zero bits 32..63
	shr rax, 32
	mov rdi, rax       ; 0 if zero-extended
	mov rax, 60
	syscall
`
	mustExit(t, src, Config{}, 0)
}

func TestByteRegisterMerge(t *testing.T) {
	// Writing an 8-bit register preserves bits 8..63.
	src := `
.text
_start:
	mov rax, 0x1100
	mov al, 0x22       ; rax = 0x1122
	mov rdi, rax
	sub rdi, 0x1122
	mov rax, 60
	syscall
`
	mustExit(t, src, Config{}, 0)
}

func TestMovsxSignExtension(t *testing.T) {
	src := `
.text
_start:
	mov cl, 0xFF       ; -1 as int8
	movsx rax, cl      ; rax = -1
	add rax, 1         ; 0
	mov rdi, rax
	mov rax, 60
	syscall
`
	mustExit(t, src, Config{}, 0)
}

func TestMemoryOperandsSIB(t *testing.T) {
	src := `
.text
_start:
	lea rbx, [rip+table]
	mov rcx, 2
	mov rax, [rbx+rcx*8]   ; table[2] = 30
	mov rdi, rax
	mov rax, 60
	syscall
.data
table: .quad 10
       .quad 20
       .quad 30
       .quad 40
`
	mustExit(t, src, Config{}, 30)
}

func TestCrashUnmappedRead(t *testing.T) {
	src := `
.text
_start:
	mov rax, [rbx]     ; rbx = 0: unmapped
` + exitStub
	_, err := run(t, src, Config{})
	var mf *MemFault
	if !errors.As(err, &mf) || mf.Kind != AccessRead {
		t.Errorf("err = %v, want read MemFault", err)
	}
}

func TestCrashWriteToROData(t *testing.T) {
	src := `
.text
_start:
	lea rbx, [rip+konst]
	mov qword ptr [rbx], 1
` + exitStub + `
.rodata
konst: .quad 5
`
	_, err := run(t, src, Config{})
	var mf *MemFault
	if !errors.As(err, &mf) || mf.Kind != AccessWrite {
		t.Errorf("err = %v, want write MemFault", err)
	}
}

func TestCrashHlt(t *testing.T) {
	_, err := run(t, ".text\n_start:\n\thlt\n", Config{})
	if !errors.Is(err, ErrHalted) {
		t.Errorf("err = %v, want ErrHalted", err)
	}
	_, err = run(t, ".text\n_start:\n\tud2\n", Config{})
	if !errors.Is(err, ErrHalted) {
		t.Errorf("ud2: err = %v, want ErrHalted", err)
	}
}

func TestStepLimit(t *testing.T) {
	src := ".text\n_start:\nspin:\n\tjmp spin\n"
	_, err := run(t, src, Config{StepLimit: 1000})
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestUnknownSyscall(t *testing.T) {
	src := ".text\n_start:\n\tmov rax, 9999\n\tsyscall\n"
	_, err := run(t, src, Config{})
	if !errors.Is(err, ErrBadSyscall) {
		t.Errorf("err = %v, want ErrBadSyscall", err)
	}
}

func TestBadFDWrite(t *testing.T) {
	// write to fd 5 returns -EBADF; program exits with that (masked).
	src := `
.text
_start:
	mov rax, 1
	mov rdi, 5
	lea rsi, [rip+msg]
	mov rdx, 1
	syscall
	cmp rax, -9
	je good
	mov rdi, 1
	mov rax, 60
	syscall
good:
	mov rdi, 0
	mov rax, 60
	syscall
.rodata
msg: .ascii "x"
`
	mustExit(t, src, Config{}, 0)
}

func TestSyscallClobbersRCXandR11(t *testing.T) {
	src := `
.text
_start:
	mov rcx, 42
	mov r11, 42
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, 1
	syscall
	cmp rcx, 42        ; must have been clobbered with return RIP
	je bad
	mov rdi, 0
	mov rax, 60
	syscall
bad:
	mov rdi, 1
	mov rax, 60
	syscall
.rodata
msg: .ascii "y"
`
	mustExit(t, src, Config{}, 0)
}

func TestTraceRecording(t *testing.T) {
	src := `
.text
_start:
	mov rax, 60
	mov rdi, 0
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(bin, Config{RecordTrace: true})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Trace) != 3 {
		t.Fatalf("trace length = %d, want 3", len(m.Trace))
	}
	if m.Trace[0].Addr != bin.Entry {
		t.Errorf("trace[0] = %#x, want entry %#x", m.Trace[0].Addr, bin.Entry)
	}
	if m.Trace[2].Op != isa.SYSCALL {
		t.Errorf("trace[2].Op = %v, want syscall", m.Trace[2].Op)
	}
}

func TestSkipHook(t *testing.T) {
	// Skipping the "mov rdi, 1" leaves rdi = 0 from the xor.
	src := `
.text
_start:
	xor rdi, rdi
	mov rdi, 1
	mov rax, 60
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	var cfg Config
	cfg.AddStepHookWindow(func(m *Machine, in *isa.Inst) StepAction {
		step++
		if step == 2 { // the mov rdi, 1
			return ActSkip
		}
		return ActContinue
	}, 0, ^uint64(0))
	res, err := New(bin, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Errorf("exit = %d, want 0 (mov skipped)", res.ExitCode)
	}
}

func TestFetchHookBitflip(t *testing.T) {
	// Flip a bit in "mov rdi, 2" turning the immediate 2 into 3
	// (bit 0 of the imm byte) just before it executes.
	src := `
.text
_start:
	mov rdi, 2
	mov rax, 60
	syscall
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	var cfg Config
	cfg.AddFetchHookWindow(func(m *Machine) {
		if !flipped && m.Steps == 0 {
			// mov rdi, 2 is REX.W C7 C7 imm32; imm starts at byte 3.
			if err := m.Mem.FlipBit(m.RIP+3, 0); err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}, 0, ^uint64(0))
	res, err := New(bin, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 3 {
		t.Errorf("exit = %d, want 3 (bitflipped immediate)", res.ExitCode)
	}
}

func TestStackDiscipline(t *testing.T) {
	// Deep call chain exercising stack growth.
	src := `
.text
_start:
	mov rcx, 100
	call recurse
	mov rdi, 0
	mov rax, 60
	syscall
recurse:
	dec rcx
	je done
	call recurse
done:
	ret
`
	mustExit(t, src, Config{}, 0)
}

func TestExitCodeTruncation(t *testing.T) {
	// exit(300) keeps 300 in our Result (int32 semantics, no & 0xff:
	// the faulter compares full codes).
	src := ".text\n_start:\n\tmov rax, 60\n\tmov rdi, 300\n\tsyscall\n"
	mustExit(t, src, Config{}, 300)
}

func TestWriteLargeCount(t *testing.T) {
	// A fault-corrupted huge count must not blow up the host.
	src := `
.text
_start:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, 0x7fffffffffffffff
	syscall
	cmp rax, -14
	je ok
	mov rdi, 1
	mov rax, 60
	syscall
ok:
	mov rdi, 0
	mov rax, 60
	syscall
.rodata
msg: .ascii "x"
`
	mustExit(t, src, Config{}, 0)
}

func TestRunResultFieldsOnCrash(t *testing.T) {
	src := `
.text
_start:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, 3
	syscall
	hlt
.rodata
msg: .ascii "abc"
`
	res, err := run(t, src, Config{})
	if err == nil {
		t.Fatal("expected crash")
	}
	if string(res.Stdout) != "abc" {
		t.Errorf("stdout before crash = %q", res.Stdout)
	}
	if res.Exited {
		t.Error("Exited true on crash")
	}
}

func TestNewMapsEverything(t *testing.T) {
	bin := &elf.Binary{
		Entry: 0x401000,
		Sections: []*elf.Section{
			{Name: ".text", Addr: 0x401000, Data: []byte{0xF4}, Flags: elf.FlagRead | elf.FlagExec},
		},
	}
	m := New(bin, Config{})
	if m.RIP != 0x401000 {
		t.Errorf("RIP = %#x", m.RIP)
	}
	if m.Regs[isa.RSP] == 0 {
		t.Error("RSP not initialized")
	}
	if m.Rflags&isa.FlagIF == 0 {
		t.Error("IF not set in initial rflags")
	}
}
