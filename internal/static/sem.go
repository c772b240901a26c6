package static

import "github.com/r2r/reinforce/internal/isa"

// LiveSet is a set of dataflow components: bits 0..15 are the sixteen
// general-purpose registers (by hardware number), bit 16 is the
// six-flag arithmetic RFLAGS unit (CF PF AF ZF SF OF). The flags are
// tracked as one unit because every full writer in the ISA (arithmetic,
// logic, popfq) defines all six together; the partial writers (inc/dec
// preserve CF) count as writing the unit.
type LiveSet uint32

// Flags is the arithmetic-flags unit bit.
const Flags LiveSet = 1 << 16

// RegBit returns the set containing one register.
func RegBit(r isa.Reg) LiveSet {
	if !r.Valid() {
		return 0
	}
	return 1 << r
}

// Has reports whether the set contains the bit(s).
func (s LiveSet) Has(b LiveSet) bool { return s&b != 0 }

// rsp is the stack-pointer bit, rewritten by every stack-adjusting
// instruction.
var rsp = RegBit(isa.RSP)

// EffectsOf returns the components one instruction writes, fully or
// partially, mirroring the emulator's execution semantics
// (emu.Machine.Step and the RFLAGS helpers) component by component: a
// 1-byte register write merges into the low byte, inc/dec preserve CF,
// and a shift with a zero count leaves the flags untouched. Memory is
// not a tracked component; unknown ops are summarized as writing
// nothing.
func EffectsOf(in isa.Inst) LiveSet {
	// dst is the destination register a value write lands in.
	var dst LiveSet
	if in.Dst.Kind == isa.KindReg {
		dst = RegBit(in.Dst.Reg)
	}
	switch in.Op {
	case isa.MOV, isa.MOVZX, isa.MOVSX, isa.LEA, isa.NOT, isa.SETCC:
		return dst

	case isa.ADD, isa.OR, isa.AND, isa.SUB, isa.XOR, isa.ADC, isa.SBB,
		isa.NEG, isa.IMUL, isa.INC, isa.DEC:
		return dst | Flags

	case isa.CMP, isa.TEST:
		return Flags

	case isa.SHL, isa.SHR, isa.SAR:
		// The count is an immediate (masked like hardware); a zero
		// count rewrites the destination with its own value and leaves
		// the flags untouched.
		if uint(in.Src.Imm)&0x3F != 0 {
			return dst | Flags
		}
		return dst

	case isa.PUSH, isa.PUSHFQ, isa.CALL, isa.RET:
		return rsp

	case isa.POP:
		// Pops write the full 64-bit register regardless of width.
		return RegBit(in.Dst.Reg) | rsp

	case isa.POPFQ:
		return Flags | rsp

	case isa.SYSCALL:
		// read/write/exit ABI: clobbers RAX (result), RCX (return RIP)
		// and R11 (saved RFLAGS).
		return RegBit(isa.RAX) | RegBit(isa.RCX) | RegBit(isa.R11)
	}
	return 0
}
