package static

import "github.com/r2r/reinforce/internal/isa"

// LiveSet is a set of dataflow components: bits 0..15 are the sixteen
// general-purpose registers (by hardware number), bit 16 is the
// six-flag arithmetic RFLAGS unit (CF PF AF ZF SF OF). The flags are
// tracked as one unit because every full writer in the ISA (arithmetic,
// logic, popfq) defines all six together; the partial writers (inc/dec
// preserve CF) are modeled as read-modify-write of the unit.
type LiveSet uint32

// Flags is the arithmetic-flags unit bit.
const Flags LiveSet = 1 << 16

// AllRegs has every general-purpose register set.
const AllRegs LiveSet = 1<<isa.NumRegs - 1

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
//   - Use: registers/flags the instruction reads (including address
//     registers of memory operands and the stack pointer for stack ops);
//   - Kill: components fully overwritten — and only those; a 1-byte
//     register write merges into the low byte and a shift with a zero
//     count leaves the flags untouched, so neither kills;
//   - Write: components written at all, fully or partially;
//   - StoresMem: the instruction writes memory (stack pushes included);
//   - Known: the semantics are modeled. Unknown ops are summarized as
//     reading everything and writing nothing.
type Effects struct {
	Use       LiveSet
	Kill      LiveSet
	Write     LiveSet
	StoresMem bool
	Known     bool
}

// operandUse returns the registers an operand's evaluation reads: the
// register itself for register operands, the base and index for memory
// operands (the memory value is not a tracked component).
func operandUse(o isa.Operand) LiveSet {
	switch o.Kind {
	case isa.KindReg:
		return RegBit(o.Reg)
	case isa.KindMem:
		return RegBit(o.Mem.Base) | RegBit(o.Mem.Index)
	}
	return 0
}

// destEffects folds a value write to the destination operand into e,
// applying the emulator's setReg widths: 8-byte writes replace, 4-byte
// writes zero-extend (both full kills), 1-byte writes merge into the
// low byte (read-modify-write, no kill). Memory destinations read their
// address registers and set StoresMem.
func destEffects(e *Effects, o isa.Operand) {
	switch o.Kind {
	case isa.KindReg:
		b := RegBit(o.Reg)
		e.Write |= b
		if o.Width == 1 {
			e.Use |= b
		} else {
			e.Kill |= b
		}
	case isa.KindMem:
		e.Use |= RegBit(o.Mem.Base) | RegBit(o.Mem.Index)
		e.StoresMem = true
	}
}

// rsp is the stack-pointer bit, read and fully rewritten by every
// stack-adjusting instruction.
var rsp = RegBit(isa.RSP)

// EffectsOf computes the dataflow summary of one instruction.
func EffectsOf(in isa.Inst) Effects {
	e := Effects{Known: true}
	switch in.Op {
	case isa.NOP, isa.JMP:
		// no state beyond RIP

	case isa.MOV, isa.MOVZX, isa.MOVSX:
		e.Use |= operandUse(in.Src)
		destEffects(&e, in.Dst)

	case isa.LEA:
		// Address computation only: reads the base/index registers,
		// never memory.
		e.Use |= operandUse(in.Src)
		destEffects(&e, in.Dst)

	case isa.ADD, isa.OR, isa.AND, isa.SUB, isa.XOR:
		e.Use |= operandUse(in.Src) | operandUse(in.Dst)
		destEffects(&e, in.Dst)
		e.Kill |= Flags
		e.Write |= Flags

	case isa.ADC, isa.SBB:
		e.Use |= operandUse(in.Src) | operandUse(in.Dst) | Flags
		destEffects(&e, in.Dst)
		e.Kill |= Flags
		e.Write |= Flags

	case isa.CMP, isa.TEST:
		e.Use |= operandUse(in.Src) | operandUse(in.Dst)
		e.Kill |= Flags
		e.Write |= Flags

	case isa.NOT:
		e.Use |= operandUse(in.Dst)
		destEffects(&e, in.Dst)

	case isa.NEG:
		e.Use |= operandUse(in.Dst)
		destEffects(&e, in.Dst)
		e.Kill |= Flags
		e.Write |= Flags

	case isa.INC, isa.DEC:
		// CF is preserved: a partial write of the flags unit.
		e.Use |= operandUse(in.Dst) | Flags
		destEffects(&e, in.Dst)
		e.Write |= Flags

	case isa.SHL, isa.SHR, isa.SAR:
		// The count is an immediate (masked like hardware); a zero
		// count rewrites the destination with its own value and leaves
		// the flags untouched.
		e.Use |= operandUse(in.Dst)
		destEffects(&e, in.Dst)
		if uint(in.Src.Imm)&0x3F != 0 {
			e.Kill |= Flags
			e.Write |= Flags
		}

	case isa.IMUL:
		e.Use |= operandUse(in.Src) | operandUse(in.Dst)
		destEffects(&e, in.Dst)
		e.Kill |= Flags
		e.Write |= Flags

	case isa.PUSH:
		e.Use |= RegBit(in.Dst.Reg) | rsp
		e.Kill |= rsp
		e.Write |= rsp
		e.StoresMem = true

	case isa.POP:
		// Pops write the full 64-bit register regardless of width.
		e.Use |= rsp
		e.Kill |= RegBit(in.Dst.Reg) | rsp
		e.Write |= RegBit(in.Dst.Reg) | rsp

	case isa.PUSHFQ:
		e.Use |= Flags | rsp
		e.Kill |= rsp
		e.Write |= rsp
		e.StoresMem = true

	case isa.POPFQ:
		e.Use |= rsp
		e.Kill |= Flags | rsp
		e.Write |= Flags | rsp

	case isa.JCC:
		e.Use |= Flags

	case isa.SETCC:
		// Writes one byte: a read-modify-write of the register.
		e.Use |= Flags
		destEffects(&e, in.Dst)

	case isa.CALL:
		e.Use |= rsp
		e.Kill |= rsp
		e.Write |= rsp
		e.StoresMem = true

	case isa.RET:
		// The return continuation is not followed statically, so
		// everything the caller might read must be treated as live.
		e.Use |= AllRegs | Flags
		e.Write |= rsp

	case isa.SYSCALL:
		// read/write/exit ABI: reads the call registers, clobbers
		// RAX (result), RCX (return RIP) and R11 (saved RFLAGS); the
		// read syscall writes memory.
		e.Use |= RegBit(isa.RAX) | RegBit(isa.RDI) | RegBit(isa.RSI) | RegBit(isa.RDX) | Flags
		e.Kill |= RegBit(isa.RAX) | RegBit(isa.RCX) | RegBit(isa.R11)
		e.Write |= e.Kill
		e.StoresMem = true

	case isa.HLT, isa.UD2:
		// Terminal: the run crashes; nothing is read.

	default:
		e.Known = false
		e.Use = AllRegs | Flags
	}
	return e
}
