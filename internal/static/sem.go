package static

import "github.com/r2r/reinforce/internal/isa"

// LiveSet is a set of dataflow components: bits 0..15 are the sixteen
// general-purpose registers (by hardware number), bit 16 is the
// six-flag arithmetic RFLAGS unit (CF PF AF ZF SF OF). The flags are
// tracked as one unit because every full writer in the ISA (arithmetic,
// logic, popfq) defines all six together; the partial writers (inc/dec
// preserve CF) are modeled as writing the unit without killing it.
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

// Effects is the dataflow summary of one instruction, mirroring the
// emulator's execution semantics (emu.Machine.Step and the RFLAGS
// helpers) component by component:
//
//   - Kill: components fully overwritten — and only those; a 1-byte
//     register write merges into the low byte and a shift with a zero
//     count leaves the flags untouched, so neither kills;
//   - Write: components written at all, fully or partially.
//
// Unknown ops are summarized as writing nothing.
type Effects struct {
	Kill  LiveSet
	Write LiveSet
}

// destEffects folds a value write to the destination operand into e,
// applying the emulator's setReg widths: 8-byte writes replace, 4-byte
// writes zero-extend (both full kills), 1-byte writes merge into the
// low byte (a write, no kill). Memory is not a tracked component.
func destEffects(e *Effects, o isa.Operand) {
	if o.Kind != isa.KindReg {
		return
	}
	b := RegBit(o.Reg)
	e.Write |= b
	if o.Width != 1 {
		e.Kill |= b
	}
}

// rsp is the stack-pointer bit, fully rewritten by every
// stack-adjusting instruction.
var rsp = RegBit(isa.RSP)

// EffectsOf computes the dataflow summary of one instruction.
func EffectsOf(in isa.Inst) Effects {
	var e Effects
	switch in.Op {
	case isa.MOV, isa.MOVZX, isa.MOVSX, isa.LEA, isa.NOT, isa.SETCC:
		// SETCC writes one byte: a merge into the register.
		destEffects(&e, in.Dst)

	case isa.ADD, isa.OR, isa.AND, isa.SUB, isa.XOR, isa.ADC, isa.SBB,
		isa.NEG, isa.IMUL:
		destEffects(&e, in.Dst)
		e.Kill |= Flags
		e.Write |= Flags

	case isa.CMP, isa.TEST:
		e.Kill |= Flags
		e.Write |= Flags

	case isa.INC, isa.DEC:
		// CF is preserved: a partial write of the flags unit.
		destEffects(&e, in.Dst)
		e.Write |= Flags

	case isa.SHL, isa.SHR, isa.SAR:
		// The count is an immediate (masked like hardware); a zero
		// count rewrites the destination with its own value and leaves
		// the flags untouched.
		destEffects(&e, in.Dst)
		if uint(in.Src.Imm)&0x3F != 0 {
			e.Kill |= Flags
			e.Write |= Flags
		}

	case isa.PUSH, isa.PUSHFQ, isa.CALL:
		e.Kill |= rsp
		e.Write |= rsp

	case isa.POP:
		// Pops write the full 64-bit register regardless of width.
		e.Kill |= RegBit(in.Dst.Reg) | rsp
		e.Write |= RegBit(in.Dst.Reg) | rsp

	case isa.POPFQ:
		e.Kill |= Flags | rsp
		e.Write |= Flags | rsp

	case isa.RET:
		e.Write |= rsp

	case isa.SYSCALL:
		// read/write/exit ABI: clobbers RAX (result), RCX (return RIP)
		// and R11 (saved RFLAGS).
		e.Kill |= RegBit(isa.RAX) | RegBit(isa.RCX) | RegBit(isa.R11)
		e.Write |= e.Kill
	}
	return e
}
