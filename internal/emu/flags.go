package emu

import (
	"math/bits"

	"github.com/r2r/reinforce/internal/isa"
)

// widthMask returns the value mask for a 1/4/8-byte operand width.
func widthMask(w uint8) uint64 {
	switch w {
	case 1:
		return 0xFF
	case 4:
		return 0xFFFFFFFF
	default:
		return ^uint64(0)
	}
}

// signBit returns the sign-bit mask for the width.
func signBit(w uint8) uint64 { return 1 << (uint(w)*8 - 1) }

// flagState manipulates the arithmetic flags inside an RFLAGS value.
type flagState struct{ rflags *uint64 }

func (f flagState) set(mask uint64, on bool) {
	if on {
		*f.rflags |= mask
	} else {
		*f.rflags &^= mask
	}
}

// setSZP sets SF, ZF and PF from a result of the given width.
func (f flagState) setSZP(r uint64, w uint8) {
	r &= widthMask(w)
	f.set(isa.FlagZF, r == 0)
	f.set(isa.FlagSF, r&signBit(w) != 0)
	f.set(isa.FlagPF, bits.OnesCount8(uint8(r))&1 == 0)
}

// addCarry returns r = a + b + carryIn at width w (a and b already
// masked) and the carry out of the top bit: ADD/ADC's CF.
func addCarry(a, b, carryIn uint64, w uint8) (uint64, bool) {
	if w == 8 {
		r, c1 := bits.Add64(a, b, 0)
		r, c2 := bits.Add64(r, carryIn, 0)
		return r, c1+c2 != 0
	}
	mask := widthMask(w)
	full := a + b + carryIn
	return full & mask, full > mask
}

// subBorrow returns r = a - b - borrowIn at width w (a and b already
// masked) and the borrow out of the top bit: SUB/SBB/CMP's CF.
func subBorrow(a, b, borrowIn uint64, w uint8) (uint64, bool) {
	if w == 8 {
		r, b1 := bits.Sub64(a, b, 0)
		r, b2 := bits.Sub64(r, borrowIn, 0)
		return r, b1+b2 != 0
	}
	need := b + borrowIn
	return (a - need) & widthMask(w), a < need
}

// addFlags computes r = a + b + carryIn at width w and sets CF/OF/AF/SZP
// per the x86 ADD/ADC definitions.
func (f flagState) addFlags(a, b, carryIn uint64, w uint8) uint64 {
	mask := widthMask(w)
	a &= mask
	b &= mask
	r, cf := addCarry(a, b, carryIn, w)
	f.set(isa.FlagCF, cf)
	f.set(isa.FlagOF, (^(a^b)&(a^r))&signBit(w) != 0)
	f.set(isa.FlagAF, (a^b^r)&0x10 != 0)
	f.setSZP(r, w)
	return r
}

// subFlags computes r = a - b - borrowIn at width w and sets flags per
// the x86 SUB/SBB/CMP definitions.
func (f flagState) subFlags(a, b, borrowIn uint64, w uint8) uint64 {
	mask := widthMask(w)
	a &= mask
	b &= mask
	r, cf := subBorrow(a, b, borrowIn, w)
	f.set(isa.FlagCF, cf)
	f.set(isa.FlagOF, ((a^b)&(a^r))&signBit(w) != 0)
	f.set(isa.FlagAF, (a^b^r)&0x10 != 0)
	f.setSZP(r, w)
	return r
}

// logicFlags sets flags for AND/OR/XOR/TEST: CF=OF=0, AF cleared
// (architecturally undefined; cleared for determinism), SZP from result.
func (f flagState) logicFlags(r uint64, w uint8) {
	f.set(isa.FlagCF, false)
	f.set(isa.FlagOF, false)
	f.set(isa.FlagAF, false)
	f.setSZP(r, w)
}

// incFlags sets flags for INC (CF preserved).
func (f flagState) incFlags(a uint64, w uint8) uint64 {
	mask := widthMask(w)
	a &= mask
	r := (a + 1) & mask
	f.set(isa.FlagOF, r == signBit(w)) // only overflow case: max positive + 1
	f.set(isa.FlagAF, (a^1^r)&0x10 != 0)
	f.setSZP(r, w)
	return r
}

// decFlags sets flags for DEC (CF preserved).
func (f flagState) decFlags(a uint64, w uint8) uint64 {
	mask := widthMask(w)
	a &= mask
	r := (a - 1) & mask
	f.set(isa.FlagOF, a == signBit(w)) // min negative - 1 overflows
	f.set(isa.FlagAF, (a^1^r)&0x10 != 0)
	f.setSZP(r, w)
	return r
}

// shiftCarry returns a shifted by count (1..63) at width w (a already
// masked) and the last bit shifted out: SHL/SHR/SAR's result and CF.
// Counts beyond the width shift everything out; SAR then fills with
// the sign.
func shiftCarry(op isa.Op, a uint64, count uint, w uint8) (uint64, bool) {
	bitsW := uint(w) * 8
	switch op {
	case isa.SHL:
		var cf bool
		if count <= bitsW {
			cf = a&(1<<(bitsW-count)) != 0
		}
		return (a << count) & widthMask(w), cf
	case isa.SHR:
		var cf bool
		if count <= bitsW {
			cf = a&(1<<(count-1)) != 0
		}
		return a >> count, cf
	default: // SAR
		// Sign-extend a to 64 bits first.
		sa := int64(a<<(64-bitsW)) >> (64 - bitsW)
		var cf bool
		if count <= bitsW {
			cf = (sa>>(count-1))&1 != 0
		} else {
			cf = sa < 0
		}
		return uint64(sa>>count) & widthMask(w), cf
	}
}

// shlFlags computes a << count and sets CF to the last bit shifted out;
// OF follows the count==1 definition, else cleared for determinism.
func (f flagState) shlFlags(a uint64, count uint, w uint8) uint64 {
	a &= widthMask(w)
	if count == 0 {
		return a
	}
	r, cf := shiftCarry(isa.SHL, a, count, w)
	f.set(isa.FlagCF, cf)
	if count == 1 {
		f.set(isa.FlagOF, (r&signBit(w) != 0) != cf)
	} else {
		f.set(isa.FlagOF, false)
	}
	f.set(isa.FlagAF, false)
	f.setSZP(r, w)
	return r
}

// shrFlags computes a >> count (logical) with CF = last bit out.
func (f flagState) shrFlags(a uint64, count uint, w uint8) uint64 {
	a &= widthMask(w)
	if count == 0 {
		return a
	}
	r, cf := shiftCarry(isa.SHR, a, count, w)
	f.set(isa.FlagCF, cf)
	if count == 1 {
		f.set(isa.FlagOF, a&signBit(w) != 0)
	} else {
		f.set(isa.FlagOF, false)
	}
	f.set(isa.FlagAF, false)
	f.setSZP(r, w)
	return r
}

// sarFlags computes a >> count (arithmetic) with CF = last bit out.
func (f flagState) sarFlags(a uint64, count uint, w uint8) uint64 {
	a &= widthMask(w)
	if count == 0 {
		return a
	}
	r, cf := shiftCarry(isa.SAR, a, count, w)
	f.set(isa.FlagCF, cf)
	f.set(isa.FlagOF, false)
	f.set(isa.FlagAF, false)
	f.setSZP(r, w)
	return r
}

// imul returns the two-operand signed product truncated to width w and
// whether it overflowed (the product does not fit the width): IMUL's
// result and CF=OF.
func imul(a, b uint64, w uint8) (uint64, bool) {
	bitsW := uint(w) * 8
	sa := int64(a<<(64-bitsW)) >> (64 - bitsW)
	sb := int64(b<<(64-bitsW)) >> (64 - bitsW)
	if w != 8 {
		p := sa * sb
		r := uint64(p) & widthMask(w)
		back := int64(r<<(64-bitsW)) >> (64 - bitsW)
		return r, back != p
	}
	return imul64(a, b)
}

// imul64 is imul at width 8: the low 64 bits of the signed product and
// whether the product overflowed them.
func imul64(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	// For signed multiply the product fits iff the signed high word is
	// the sign extension of lo. Correct hi for signed operands
	// (bits.Mul64 is unsigned): hi_signed = hi - (a<0 ? b : 0) - (b<0 ? a : 0).
	if int64(a) < 0 {
		hi -= b
	}
	if int64(b) < 0 {
		hi -= a
	}
	return lo, hi != uint64(int64(lo)>>63)
}

// imulFlags computes the two-operand signed multiply and sets CF=OF when
// the product does not fit the destination width. SZP are set from the
// result for determinism (architecturally undefined).
func (f flagState) imulFlags(a, b uint64, w uint8) uint64 {
	r, overflow := imul(a, b, w)
	f.set(isa.FlagCF, overflow)
	f.set(isa.FlagOF, overflow)
	f.set(isa.FlagAF, false)
	f.setSZP(r, w)
	return r
}

// Lazy flags. The micro-op fast path does not compute RFLAGS for each
// flag-writing uop; it records the uop's inputs in Machine.cc and
// computes flags only when something reads them (see runUops). Pending
// records never outlive runFast, so Rflags is exact everywhere else.

// Flag-record kinds: which eager flag function materializes the record.
// ccNone means Rflags is exact. NEG records as ccSub of (0, a), exactly
// the subFlags call exec makes.
const (
	ccNone uint8 = iota
	ccAdd
	ccSub // sub, cmp, neg
	ccLogic
	ccImul
	ccInc
	ccDec
	ccShl
	ccShr
	ccSar
)

// flagRecord is a pending RFLAGS update: the last flag-writing uop's
// kind, width, masked operands (b is the count for shifts) and masked
// result, plus CF computed when the record was written (for INC/DEC
// the carry they preserve). Every kind's flag function writes all six
// arithmetic flags — INC/DEC all but CF, which the record supplies — so
// materializing a record never depends on the Rflags it overwrites.
type flagRecord struct {
	a, b, r uint64
	kind    uint8
	width   uint8
	cf      bool
}

// set writes the record field by field.
func (c *flagRecord) set(kind, w uint8, a, b, r uint64, cf bool) {
	c.a, c.b, c.r, c.kind, c.width, c.cf = a, b, r, kind, w, cf
}

// carry returns the current CF: the pending record's, else Rflags'.
func (m *Machine) carry() bool {
	if m.cc.kind != ccNone {
		return m.cc.cf
	}
	return m.Rflags&isa.FlagCF != 0
}

// flushFlags materializes a pending flag record into Rflags by calling
// the eager flag function with the recorded operands, so the bits are
// the interpreter's by construction.
func (m *Machine) flushFlags() {
	c := &m.cc
	if c.kind == ccNone {
		return
	}
	f := flagState{&m.Rflags}
	switch c.kind {
	case ccAdd:
		f.addFlags(c.a, c.b, 0, c.width)
	case ccSub:
		f.subFlags(c.a, c.b, 0, c.width)
	case ccLogic:
		f.logicFlags(c.r, c.width)
	case ccImul:
		f.imulFlags(c.a, c.b, c.width)
	case ccInc:
		f.set(isa.FlagCF, c.cf)
		f.incFlags(c.a, c.width)
	case ccDec:
		f.set(isa.FlagCF, c.cf)
		f.decFlags(c.a, c.width)
	case ccShl:
		f.shlFlags(c.a, uint(c.b), c.width)
	case ccShr:
		f.shrFlags(c.a, uint(c.b), c.width)
	case ccSar:
		f.sarFlags(c.a, uint(c.b), c.width)
	}
	c.kind = ccNone
}

// cond evaluates condition c on the machine's flags. The conditions
// built from ZF, CF and SF alone (E, NE, B, AE, BE, A, S, NS — nearly
// every branch compiled code takes) are answered straight from a
// pending record's result and carry; the rest materialize it first.
func (m *Machine) cond(c isa.Cond) bool {
	if cc := &m.cc; cc.kind != ccNone {
		switch c {
		case isa.CondE:
			return cc.r == 0
		case isa.CondNE:
			return cc.r != 0
		case isa.CondB:
			return cc.cf
		case isa.CondAE:
			return !cc.cf
		case isa.CondBE:
			return cc.cf || cc.r == 0
		case isa.CondA:
			return !cc.cf && cc.r != 0
		case isa.CondS:
			return cc.r&signBit(cc.width) != 0
		case isa.CondNS:
			return cc.r&signBit(cc.width) == 0
		}
		m.flushFlags()
	}
	return isa.CondHolds(c, m.Rflags)
}
