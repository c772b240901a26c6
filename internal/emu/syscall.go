package emu

import (
	"fmt"
	"slices"

	"github.com/r2r/reinforce/internal/isa"
)

// Linux x86-64 syscall numbers supported by the emulator.
const (
	sysRead      = 0
	sysWrite     = 1
	sysExit      = 60
	sysExitGroup = 231
)

// Linux errno values (returned negative, as the kernel ABI does).
const (
	errnoBADF  = 9
	errnoFAULT = 14
)

// maxIOChunk bounds a single read/write so a fault-corrupted length
// cannot make the emulator allocate gigabytes. It plays the role of the
// kernel's MAX_RW_COUNT: like Linux, oversized counts are clamped to it
// and the syscall returns a partial transfer, rather than failing — so
// a fault that corrupts a length register degrades the way the real ABI
// would instead of taking an emulator-only -EFAULT exit.
const maxIOChunk = 1 << 20

// ioCount resolves a syscall's raw count register against the chunk
// bound: counts above maxIOChunk (including values whose sign bit is
// set, which a size_t-taking kernel treats as huge) clamp to it.
func ioCount(raw uint64) int {
	if raw > maxIOChunk {
		return maxIOChunk
	}
	return int(raw)
}

// syscall implements the Linux syscall ABI subset. Like real hardware,
// it clobbers RCX (return RIP) and R11 (RFLAGS).
func (m *Machine) syscall(next uint64) error {
	nr := m.Regs[isa.RAX]
	a0 := m.Regs[isa.RDI]
	a1 := m.Regs[isa.RSI]
	a2 := m.Regs[isa.RDX]

	m.Regs[isa.RCX] = next
	m.Regs[isa.R11] = m.Rflags

	ret := func(v int64) { m.Regs[isa.RAX] = uint64(v) }

	switch nr {
	case sysRead:
		if a0 != 0 {
			ret(-errnoBADF)
			return nil
		}
		n := ioCount(a2)
		remain := len(m.Stdin) - m.inPos
		if n > remain {
			n = remain
		}
		if n > 0 {
			if err := m.Mem.Write(a1, m.Stdin[m.inPos:m.inPos+n]); err != nil {
				ret(-errnoFAULT)
				return nil
			}
			m.inPos += n
		}
		ret(int64(n))
		return nil

	case sysWrite:
		if a0 != 1 && a0 != 2 {
			ret(-errnoBADF)
			return nil
		}
		// Validate the whole source range before touching the stream,
		// so a fault-corrupted length over an unmapped buffer fails
		// with -EFAULT without allocating, and a failed write leaves
		// no partial output.
		n := ioCount(a2)
		if err := m.Mem.check(a1, n, AccessRead); err != nil {
			ret(-errnoFAULT)
			return nil
		}
		out := &m.Stdout
		if a0 == 2 {
			out = &m.Stderr
		}
		l := len(*out)
		*out = slices.Grow(*out, n)[:l+n]
		m.Mem.readRaw(a1, (*out)[l:])
		ret(int64(n))
		return nil

	case sysExit, sysExitGroup:
		m.Exited = true
		m.ExitCode = int(int32(uint32(a0)))
		return nil
	}
	return fmt.Errorf("%w: %d", ErrBadSyscall, nr)
}
