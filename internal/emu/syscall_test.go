package emu

import (
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/isa"
)

// readProg reads count bytes into a 16-byte buffer, exits with the
// syscall's return value truncated to a byte (so tests can observe the
// transfer count without parsing stdout).
func readProg(count string) string {
	return `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, ` + count + `
	syscall
	mov rdi, rax
	mov rax, 60
	syscall
.bss
buf: .zero 16
`
}

// TestReadOversizedCountClamps: a count above maxIOChunk — the shape a
// fault-corrupted length register takes — clamps to the chunk bound and
// returns the partial transfer, like the kernel's MAX_RW_COUNT clamp,
// instead of an emulator-only -EFAULT.
func TestReadOversizedCountClamps(t *testing.T) {
	for _, count := range []string{
		"0x200000",           // 2 MiB: above the chunk bound
		"0x8000000000000000", // sign bit set: huge size_t
		"0xffffffffffffffff", // (size_t)-1, the classic corrupted length
	} {
		res := mustExit(t, readProg(count), Config{Stdin: []byte("abcdefgh")}, 8)
		if res.ExitCode != 8 {
			t.Errorf("count %s: read returned %d, want 8 (stdin length)", count, res.ExitCode)
		}
	}
}

// TestReadClampStopsAtBuffer: after clamping, the transfer is still
// bounded by what is actually available and mapped — the read lands the
// stdin bytes in the buffer exactly as a well-sized read would.
func TestReadClampStopsAtBuffer(t *testing.T) {
	src := `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 0xffffffffffffffff
	syscall
	mov rax, [rip+buf]
	mov rbx, 0x3837363534333231  ; "12345678" little-endian
	cmp rax, rbx
	jne bad
	mov rax, 60
	mov rdi, 0
	syscall
bad:
	mov rax, 60
	mov rdi, 1
	syscall
.bss
buf: .zero 16
`
	mustExit(t, src, Config{Stdin: []byte("12345678")}, 0)
}

// TestWriteOversizedCountClamped: an oversized write count clamps
// instead of erroring; the transfer then fails with -EFAULT only
// because the clamped range genuinely runs off the mapped buffer —
// the same failure the kernel's copy_from_user would hit.
func TestWriteOversizedCountClamped(t *testing.T) {
	src := `
.text
_start:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, 0xffffffffffffffff
	syscall
	mov rdi, rax
	neg rdi
	mov rax, 60
	syscall
.rodata
msg: .ascii "x"
`
	// 14 = EFAULT: the clamped 1 MiB range extends past the data page.
	mustExit(t, src, Config{}, 14)
}

// TestWriteInChunkBound: a write whose count fits the chunk bound is
// unaffected by the clamp.
func TestWriteInChunkBound(t *testing.T) {
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
msg: .ascii "ok\n"
.equ msg_len, . - msg
`
	res := mustExit(t, src, Config{}, 0)
	if string(res.Stdout) != "ok\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

// TestWriteFaultAllocatesNoBuffer: a write whose (clamped) range
// starts in an unmapped buffer fails with -EFAULT before any transfer
// buffer exists — a fault-corrupted length must not cost a zeroed
// 1 MiB allocation per injection, which is what maxIOChunk bounds. The
// one allocation left is the range check's discarded *MemFault.
func TestWriteFaultAllocatesNoBuffer(t *testing.T) {
	bin, err := asm.Assemble(".text\n_start:\n\tsyscall\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(bin, Config{})
	write := func() {
		m.Regs[isa.RAX], m.Regs[isa.RDI] = sysWrite, 1
		m.Regs[isa.RSI], m.Regs[isa.RDX] = 0xdead0000, ^uint64(0)
		if err := m.syscall(0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, write); allocs > 1 {
		t.Errorf("faulting write allocated %.1f times per call, want at most the fault descriptor", allocs)
	}
	if got := int64(m.Regs[isa.RAX]); got != -errnoFAULT {
		t.Errorf("write returned %d, want -EFAULT", got)
	}
	if len(m.Stdout) != 0 {
		t.Errorf("faulting write left %d bytes of output", len(m.Stdout))
	}
}

func TestIOCount(t *testing.T) {
	cases := []struct {
		raw  uint64
		want int
	}{
		{0, 0},
		{8, 8},
		{maxIOChunk, maxIOChunk},
		{maxIOChunk + 1, maxIOChunk},
		{1 << 63, maxIOChunk},
		{^uint64(0), maxIOChunk},
	}
	for _, tc := range cases {
		if got := ioCount(tc.raw); got != tc.want {
			t.Errorf("ioCount(%#x) = %d, want %d", tc.raw, got, tc.want)
		}
	}
}
