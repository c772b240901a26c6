// Micro-op fast path: the emulator's hot loop rewritten around a
// predecoded, closure-free instruction stream.
//
// The single-step interpreter (Step in machine.go) pays per-step costs
// that exist only to support hooks, recorders, and self-modifying
// code: hook nil checks, page logging, code-generation checks, decode
// cache lookups, and the operand-kind switches inside exec. Fault
// campaigns execute the same golden instructions millions of times
// with all of that machinery idle, so each decoded instruction is
// translated once into a compact micro-op (uop) — operand kinds
// resolved, immediates pre-masked, RIP-relative addresses folded —
// and straight-line runs dispatch uops back to back off one switch.
//
// Two uop sources exist. A Program is translated once from a golden
// run's decoded instructions and shared read-only, together with them,
// by every machine resumed from the run's snapshots (dense index).
// Machines without a seeded program (cold starts, or after code
// mutated) translate private blocks lazily from their own memory.
//
// Correctness contract: the fast path is bit-identical to Step. It
// only runs while no hook arming window is open and no recorder is
// attached (Machine.fastLimit), errors leave RIP at the faulting
// instruction with the step already counted exactly like Step, RunUntil
// boundaries pause at precise step counts, and a uop that may write
// memory re-checks the code generation so self-modifying stores drop
// back to the interpreter before a stale block executes. The
// differential fuzz target (FuzzFastPathDifferential) and the campaign
// parity tests enforce the contract.
package emu

import (
	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/isa"
)

// uop kinds. uGeneric falls back to the interpreter's exec switch for
// anything not worth specializing (rare ops, odd operand shapes).
const (
	uGeneric uint8 = iota
	uNop
	uMovRR // mov reg, reg
	uMovRI // mov reg, imm
	uMovRM // mov reg, [mem]
	uMovMR // mov [mem], reg
	uMovMI // mov [mem], imm
	uMovzxR
	uMovzxM
	uMovsxR
	uMovsxM
	uLea
	uAluRR // add/adc/sub/sbb/cmp/and/or/xor/test/imul reg, reg
	uAluRI
	uAluRM
	uAluMR
	uAluMI
	uShiftR // shl/shr/sar reg, imm
	uUnaryR // not/neg/inc/dec reg
	uPush
	uPop
	uPushfq
	uPopfq
	uSetccR
	uJmp
	uJcc
	uCall
	uRet
	uSyscall
)

// uop flags.
const (
	// uFlagCF: the executor sets RIP itself (branches, ret, syscall,
	// and the generic fallback); the block runner re-resolves the
	// stream at the new RIP.
	uFlagCF uint8 = 1 << iota
	// uFlagSeq: the next uop in the stream is this one's fall-through
	// successor, so the runner advances by index instead of lookup.
	uFlagSeq
	// uFlagMemW: the uop may write memory; the runner re-checks the
	// code generation afterwards and bails out if a store touched
	// executable bytes (self-modifying code).
	uFlagMemW
)

// uop is one predecoded instruction: operand kinds resolved at
// translation time so execution is a flat switch with no per-step
// decode, map, or operand-kind dispatch.
type uop struct {
	kind   uint8
	flags  uint8
	width  uint8 // destination operand width
	width2 uint8 // source operand width
	scale  uint8
	op     isa.Op
	cond   isa.Cond
	dst    isa.Reg
	src    isa.Reg
	base   isa.Reg // memory base (NoReg: disp is absolute)
	index  isa.Reg // memory index (NoReg: none)
	imm    int64   // pre-masked immediate / shift count
	disp   int64   // displacement; absolute address when RIP-relative
	addr   uint64  // instruction address
	next   uint64  // fall-through address (addr + encoded length)
	target uint64  // branch target
	inst   *isa.Inst
}

// setMem resolves a memory operand at translation time: RIP-relative
// operands fold to an absolute address (matching effAddr's
// Addr+EncLen+Disp), register forms keep base/index/scale/disp.
func (u *uop) setMem(in *isa.Inst, mem *isa.Mem) {
	if mem.RIPRel {
		u.base, u.index = isa.NoReg, isa.NoReg
		u.disp = int64(in.Addr + uint64(in.EncLen) + uint64(int64(mem.Disp)))
		return
	}
	u.base, u.index, u.scale = mem.Base, mem.Index, mem.Scale
	u.disp = int64(mem.Disp)
}

// uaddr computes the uop's effective memory address in the machine's
// current state, mirroring effAddr bit for bit.
func (m *Machine) uaddr(u *uop) uint64 {
	a := uint64(u.disp)
	if u.base != isa.NoReg {
		a += m.Regs[u.base]
	}
	if u.index != isa.NoReg {
		a += m.Regs[u.index] * uint64(u.scale)
	}
	return a
}

// maskImm pre-applies readOperand's immediate masking.
func maskImm(op *isa.Operand) int64 {
	return int64(uint64(op.Imm) & widthMask(op.Width))
}

// translateInst translates one decoded instruction into *u. Anything
// outside the specialized shapes keeps kind uGeneric and executes
// through the interpreter's exec switch (bit-identical by
// construction); the shared inst pointer must therefore stay valid as
// long as the uop, so callers translating from a transient decode
// result must clone it when the result is generic.
func translateInst(in *isa.Inst, u *uop) {
	*u = uop{
		kind:   uGeneric,
		flags:  uFlagCF, // exec sets RIP itself
		op:     in.Op,
		cond:   in.Cond,
		width:  in.Dst.Width,
		width2: in.Src.Width,
		dst:    in.Dst.Reg,
		src:    in.Src.Reg,
		addr:   in.Addr,
		next:   in.Addr + uint64(in.EncLen),
		target: in.Target,
		inst:   in,
	}
	regDst := in.Dst.Kind == isa.KindReg
	memDst := in.Dst.Kind == isa.KindMem
	regSrc := in.Src.Kind == isa.KindReg
	immSrc := in.Src.Kind == isa.KindImm
	memSrc := in.Src.Kind == isa.KindMem

	specialize := func(kind uint8, flags uint8) {
		u.kind = kind
		u.flags = flags
		u.inst = nil // specialized uops never consult the decoded form
	}

	switch in.Op {
	case isa.MOV:
		switch {
		case regDst && regSrc:
			specialize(uMovRR, 0)
		case regDst && immSrc:
			u.imm = maskImm(&in.Src)
			specialize(uMovRI, 0)
		case regDst && memSrc:
			u.setMem(in, &in.Src.Mem)
			specialize(uMovRM, 0)
		case memDst && regSrc:
			u.setMem(in, &in.Dst.Mem)
			specialize(uMovMR, uFlagMemW)
		case memDst && immSrc:
			u.imm = maskImm(&in.Src)
			u.setMem(in, &in.Dst.Mem)
			specialize(uMovMI, uFlagMemW)
		}

	case isa.MOVZX, isa.MOVSX:
		sx := in.Op == isa.MOVSX
		switch {
		case regDst && regSrc:
			if sx {
				specialize(uMovsxR, 0)
			} else {
				specialize(uMovzxR, 0)
			}
		case regDst && memSrc:
			u.setMem(in, &in.Src.Mem)
			if sx {
				specialize(uMovsxM, 0)
			} else {
				specialize(uMovzxM, 0)
			}
		}

	case isa.LEA:
		if regDst && memSrc {
			u.setMem(in, &in.Src.Mem)
			specialize(uLea, 0)
		}

	case isa.ADD, isa.ADC, isa.SUB, isa.SBB, isa.CMP,
		isa.AND, isa.OR, isa.XOR, isa.TEST, isa.IMUL:
		// CMP and TEST never write their destination, so the memory
		// forms carry no store flag; IMUL's destination is always a
		// register in this subset.
		w := uint8(0)
		if memDst && in.Op != isa.CMP && in.Op != isa.TEST {
			w = uFlagMemW
		}
		switch {
		case regDst && regSrc:
			specialize(uAluRR, 0)
		case regDst && immSrc:
			u.imm = maskImm(&in.Src)
			specialize(uAluRI, 0)
		case regDst && memSrc:
			u.setMem(in, &in.Src.Mem)
			specialize(uAluRM, 0)
		case memDst && regSrc:
			u.setMem(in, &in.Dst.Mem)
			specialize(uAluMR, w)
		case memDst && immSrc:
			u.imm = maskImm(&in.Src)
			u.setMem(in, &in.Dst.Mem)
			specialize(uAluMI, w)
		}

	case isa.SHL, isa.SHR, isa.SAR:
		// exec reads the count from Src.Imm unconditionally, so only
		// the immediate-count register form is specialized.
		if regDst && immSrc {
			u.imm = int64(uint(in.Src.Imm) & 0x3F)
			specialize(uShiftR, 0)
		}

	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		if regDst {
			specialize(uUnaryR, 0)
		}

	case isa.PUSH:
		if regDst {
			specialize(uPush, uFlagMemW)
		}

	case isa.POP:
		if regDst {
			specialize(uPop, 0)
		}

	case isa.PUSHFQ:
		specialize(uPushfq, uFlagMemW)

	case isa.POPFQ:
		specialize(uPopfq, 0)

	case isa.SETCC:
		if regDst {
			specialize(uSetccR, 0)
		}

	case isa.JMP:
		specialize(uJmp, uFlagCF)

	case isa.JCC:
		specialize(uJcc, uFlagCF)

	case isa.CALL:
		specialize(uCall, uFlagCF)

	case isa.RET:
		specialize(uRet, uFlagCF)

	case isa.SYSCALL:
		specialize(uSyscall, uFlagCF)

	case isa.NOP:
		specialize(uNop, 0)
	}
}

// aluCompute evaluates an ALU uop's result and flags exactly like the
// corresponding exec cases. For CMP and TEST the result is discarded
// by the caller; TEST sets flags here like exec's dedicated case.
func (m *Machine) aluCompute(op isa.Op, a, b uint64, w uint8) uint64 {
	f := flagState{&m.Rflags}
	switch op {
	case isa.ADD:
		return f.addFlags(a, b, 0, w)
	case isa.ADC:
		carry := uint64(0)
		if m.Rflags&isa.FlagCF != 0 {
			carry = 1
		}
		return f.addFlags(a, b, carry, w)
	case isa.SUB, isa.CMP:
		return f.subFlags(a, b, 0, w)
	case isa.SBB:
		borrow := uint64(0)
		if m.Rflags&isa.FlagCF != 0 {
			borrow = 1
		}
		return f.subFlags(a, b, borrow, w)
	case isa.AND:
		r := (a & b) & widthMask(w)
		f.logicFlags(r, w)
		return r
	case isa.OR:
		r := (a | b) & widthMask(w)
		f.logicFlags(r, w)
		return r
	case isa.XOR:
		r := (a ^ b) & widthMask(w)
		f.logicFlags(r, w)
		return r
	case isa.TEST:
		f.logicFlags(a&b&widthMask(w), w)
		return 0
	case isa.IMUL:
		return f.imulFlags(a, b, w)
	}
	return 0
}

// execUop executes one micro-op. Non-control-flow uops do not update
// RIP (the block runner maintains it lazily); control-flow uops
// (uFlagCF) set RIP exactly like exec. On error the caller restores
// RIP to u.addr, matching the interpreter's state after a failed exec.
func (m *Machine) execUop(u *uop) error {
	switch u.kind {
	case uNop:

	case uMovRR:
		m.setReg(u.dst, m.reg(u.src, u.width2), u.width)
	case uMovRI:
		m.setReg(u.dst, uint64(u.imm), u.width)
	case uMovRM:
		v, err := m.Mem.ReadUint(m.uaddr(u), u.width2)
		if err != nil {
			return err
		}
		m.setReg(u.dst, v, u.width)
	case uMovMR:
		return m.Mem.WriteUint(m.uaddr(u), m.reg(u.src, u.width2), u.width)
	case uMovMI:
		return m.Mem.WriteUint(m.uaddr(u), uint64(u.imm), u.width)

	case uMovzxR:
		m.setReg(u.dst, m.reg(u.src, u.width2)&0xFF, u.width)
	case uMovzxM:
		v, err := m.Mem.ReadUint(m.uaddr(u), u.width2)
		if err != nil {
			return err
		}
		m.setReg(u.dst, v&0xFF, u.width)
	case uMovsxR:
		m.setReg(u.dst, uint64(int64(int8(m.reg(u.src, u.width2)))), u.width)
	case uMovsxM:
		v, err := m.Mem.ReadUint(m.uaddr(u), u.width2)
		if err != nil {
			return err
		}
		m.setReg(u.dst, uint64(int64(int8(v))), u.width)

	case uLea:
		m.setReg(u.dst, m.uaddr(u), u.width)

	case uAluRR:
		r := m.aluCompute(u.op, m.reg(u.dst, u.width), m.reg(u.src, u.width2), u.width)
		if u.op != isa.CMP && u.op != isa.TEST {
			m.setReg(u.dst, r, u.width)
		}
	case uAluRI:
		r := m.aluCompute(u.op, m.reg(u.dst, u.width), uint64(u.imm), u.width)
		if u.op != isa.CMP && u.op != isa.TEST {
			m.setReg(u.dst, r, u.width)
		}
	case uAluRM:
		b, err := m.Mem.ReadUint(m.uaddr(u), u.width2)
		if err != nil {
			return err
		}
		r := m.aluCompute(u.op, m.reg(u.dst, u.width), b, u.width)
		if u.op != isa.CMP && u.op != isa.TEST {
			m.setReg(u.dst, r, u.width)
		}
	case uAluMR, uAluMI:
		addr := m.uaddr(u)
		a, err := m.Mem.ReadUint(addr, u.width)
		if err != nil {
			return err
		}
		b := uint64(u.imm)
		if u.kind == uAluMR {
			b = m.reg(u.src, u.width2)
		}
		r := m.aluCompute(u.op, a, b, u.width)
		if u.op != isa.CMP && u.op != isa.TEST {
			return m.Mem.WriteUint(addr, r, u.width)
		}

	case uShiftR:
		f := flagState{&m.Rflags}
		a := m.reg(u.dst, u.width)
		count := uint(u.imm)
		var r uint64
		switch u.op {
		case isa.SHL:
			r = f.shlFlags(a, count, u.width)
		case isa.SHR:
			r = f.shrFlags(a, count, u.width)
		case isa.SAR:
			r = f.sarFlags(a, count, u.width)
		}
		m.setReg(u.dst, r, u.width)

	case uUnaryR:
		f := flagState{&m.Rflags}
		a := m.reg(u.dst, u.width)
		var r uint64
		switch u.op {
		case isa.NOT:
			r = ^a & widthMask(u.width)
		case isa.NEG:
			r = f.subFlags(0, a, 0, u.width)
		case isa.INC:
			r = f.incFlags(a, u.width)
		case isa.DEC:
			r = f.decFlags(a, u.width)
		}
		m.setReg(u.dst, r, u.width)

	case uPush:
		return m.push64(m.Regs[u.dst])
	case uPop:
		v, err := m.pop64()
		if err != nil {
			return err
		}
		m.Regs[u.dst] = v
	case uPushfq:
		return m.push64(m.Rflags)
	case uPopfq:
		v, err := m.pop64()
		if err != nil {
			return err
		}
		m.Rflags = isa.FlagsFixed | (v & isa.FlagsArithMask)

	case uSetccR:
		v := uint64(0)
		if isa.CondHolds(u.cond, m.Rflags) {
			v = 1
		}
		m.setReg(u.dst, v, u.width)

	case uJmp:
		m.RIP = u.target
	case uJcc:
		if isa.CondHolds(u.cond, m.Rflags) {
			m.RIP = u.target
		} else {
			m.RIP = u.next
		}
	case uCall:
		if err := m.push64(u.next); err != nil {
			return err
		}
		m.RIP = u.target
	case uRet:
		v, err := m.pop64()
		if err != nil {
			return err
		}
		m.RIP = v
	case uSyscall:
		if err := m.syscall(u.next); err != nil {
			return err
		}
		m.RIP = u.next

	default: // uGeneric
		return m.exec(u.inst)
	}
	return nil
}

// Program is a golden run's immutable code artifact, dense over its
// code address range: the decoded instructions (the per-step decode
// cache, an index instead of a map hash) and the micro-op stream
// translated from them. Built once from a finished golden run and
// shared read-only by every machine resumed from the run's snapshots
// (see Snapshot.SeedProgram).
type Program struct {
	base  uint64
	gen   uint64 // memory code generation the artifact is valid for
	insts []isa.Inst
	have  []bool
	idx   []int32 // addr-base -> uop index + 1; 0 = not translated
	uops  []uop
}

// maxProgramSpan bounds a Program's address range (the code of any
// plausible rewritten binary is far below this; a sparse decode map
// spanning more indicates address-space games not worth caching).
const maxProgramSpan = 16 << 20

// TranslateProgram converts a machine's decode map (see DecodeCache)
// into a shared Program: the dense decode cache plus its micro-op
// translation. Returns nil when there is nothing to cache or the
// addresses span an implausibly large range.
func TranslateProgram(decoded map[uint64]*isa.Inst, gen uint64) *Program {
	if len(decoded) == 0 {
		return nil
	}
	lo, hi := uint64(1<<63), uint64(0)
	//lint:allow maprange (min/max fold: commutative)
	for a := range decoded {
		lo, hi = min(lo, a), max(hi, a)
	}
	span := hi - lo + 1
	if span > maxProgramSpan {
		return nil
	}
	p := &Program{
		base:  lo,
		gen:   gen,
		insts: make([]isa.Inst, span),
		have:  make([]bool, span),
		idx:   make([]int32, span),
		uops:  make([]uop, 0, len(decoded)),
	}
	for a, in := range decoded {
		p.insts[a-lo] = *in
		p.have[a-lo] = true
	}
	prev := -1
	for off := range p.have {
		if !p.have[off] {
			continue
		}
		p.uops = append(p.uops, uop{})
		i := len(p.uops) - 1
		// The decoded instructions are stable for the program's
		// lifetime, so generic uops may point straight into them.
		translateInst(&p.insts[off], &p.uops[i])
		p.idx[off] = int32(i + 1)
		if prev >= 0 {
			if pu := &p.uops[prev]; pu.flags&uFlagCF == 0 && pu.next == p.uops[i].addr {
				pu.flags |= uFlagSeq
			}
		}
		prev = i
	}
	return p
}

// lookup returns the decoded instruction at addr, or nil.
func (p *Program) lookup(addr uint64) *isa.Inst {
	off := addr - p.base
	if off < uint64(len(p.have)) && p.have[off] {
		return &p.insts[off]
	}
	return nil
}

// maxPrivBlock bounds lazily translated private blocks; RunUntil's
// outer loop stitches longer straight-line runs from several blocks.
const maxPrivBlock = 64

// maxPrivSpan bounds the executable address span a machine-private
// translation index will cover (the index costs 4 bytes per code
// byte). Binaries beyond it run on the single-step interpreter — the
// pre-fast-path behavior, bit-identical by definition.
const maxPrivSpan = 1 << 20

// privProg is a machine-private incremental micro-op translation,
// dense over the binary's executable span like the shared Program but
// grown block by block as execution reaches new addresses. Machines
// whose code mutated away from the shared Program (bit-flip forks,
// self-modifying stores) rebuild here from their own memory.
type privProg struct {
	base    uint64
	idx     []int32 // addr-base -> uop index + 1; 0 unknown, -1 untranslatable
	uops    []uop
	insts   []isa.Inst // slab backing generic uops' stable decode copies
	touched []int32    // idx offsets written since the last reset
}

// privReset (re)initializes the private translation for the current
// code generation, reusing the previous buffers. Returns nil when the
// executable span is too large to index densely.
func (m *Machine) privReset(gen uint64) *privProg {
	lo, hi := m.Mem.execSpan()
	if hi <= lo || hi-lo > maxPrivSpan {
		return nil
	}
	p := m.priv
	if p == nil {
		p = privPool.Get().(*privProg)
		m.priv = p
	}
	p.base = lo
	// Zero only the index entries the previous translation wrote when
	// that beats wiping the whole index — bit-flip forks reset once per
	// fork after translating a handful of blocks, so this is the
	// difference between O(blocks) and O(code span) per fork. The index
	// is all-zero outside touched entries (every write is tracked), so
	// either branch restores the all-zero invariant across the full
	// backing array.
	if len(p.touched) < len(p.idx)/8 {
		for _, off := range p.touched {
			p.idx[off] = 0
		}
	} else {
		clear(p.idx)
	}
	p.touched = p.touched[:0]
	// Keep len(p.idx) exactly the span: a pooled index longer than the
	// span would let out-of-span addresses translate instead of falling
	// back to the interpreter's permission checks.
	if span := hi - lo; uint64(cap(p.idx)) < span {
		p.idx = make([]int32, span)
	} else {
		p.idx = p.idx[:span]
	}
	p.uops = p.uops[:0]
	p.insts = p.insts[:0]
	m.privGen = gen
	return p
}

// translateBlock decodes a straight-line block starting at addr from
// the machine's own memory into the private translation, ending at
// the first control-flow uop, a decode failure, an already-translated
// address (the block merges into the existing stream), or the size
// cap. Every instruction in the block gets its own index entry, so
// branches into the middle of a translated block resolve without
// retranslation. Returns the index of addr's uop, or -1 when the
// first instruction is untranslatable — the caller single-steps and
// the interpreter reproduces the exact error.
func (m *Machine) translateBlock(p *privProg, addr uint64) int {
	start := len(p.uops)
	pc := addr
	for len(p.uops)-start < maxPrivBlock {
		off := pc - p.base
		if off >= uint64(len(p.idx)) || p.idx[off] != 0 {
			break // left the span, or merged into a translated stream
		}
		n, err := m.Mem.Fetch(pc, m.fetchBuf[:])
		if err != nil {
			break
		}
		dec, err := decode.Decode(m.fetchBuf[:n], pc)
		if err != nil {
			break
		}
		p.uops = append(p.uops, uop{})
		u := &p.uops[len(p.uops)-1]
		translateInst(&dec, u)
		if u.kind == uGeneric {
			// The decode result is loop-local; generic uops consult it
			// at execution time, so give them a stable copy in the
			// translation's slab. A grown slab strands its old backing
			// array, but earlier uops' pointers into it stay valid.
			// Specialized uops (the overwhelming majority) need none.
			p.insts = append(p.insts, dec)
			u.inst = &p.insts[len(p.insts)-1]
		}
		if len(p.uops)-1 > start {
			// The previous uop is never control flow (the loop would
			// have ended), so the new uop is its fall-through successor.
			p.uops[len(p.uops)-2].flags |= uFlagSeq
		}
		p.idx[off] = int32(len(p.uops))
		p.touched = append(p.touched, int32(off))
		if u.flags&uFlagCF != 0 {
			break
		}
		pc = u.next
	}
	if len(p.uops) == start {
		if off := addr - p.base; off < uint64(len(p.idx)) {
			p.idx[off] = -1
			p.touched = append(p.touched, int32(off))
		}
		return -1
	}
	return start
}

// fastLookup resolves the micro-op stream containing addr: the shared
// program first, then the machine-private translation, growing it on
// demand. Streams are only served while their code generation matches
// memory; a stale private translation is reset wholesale. Returns a
// nil stream when addr has no translation (the caller single-steps).
func (m *Machine) fastLookup(addr uint64) ([]uop, int) {
	gen := m.Mem.codeGen
	if p := m.prog; p != nil && p.gen == gen {
		if off := addr - p.base; off < uint64(len(p.idx)) {
			if i := p.idx[off]; i > 0 {
				return p.uops, int(i - 1)
			}
		}
	}
	p := m.priv
	if p == nil || m.privGen != gen {
		if p = m.privReset(gen); p == nil {
			return nil, -1
		}
	}
	off := addr - p.base
	if off >= uint64(len(p.idx)) {
		return nil, -1
	}
	i := p.idx[off]
	if i == 0 {
		if j := m.translateBlock(p, addr); j >= 0 {
			return p.uops, j
		}
		return nil, -1
	}
	if i < 0 {
		return nil, -1
	}
	return p.uops, int(i - 1)
}

// fastLimit returns the step count up to which the machine may run on
// the micro-op fast path right now: the caller's stop boundary,
// clamped by the step limit and by the start of the hook arming
// window. Zero (or any value <= Steps) means single-step: a recorder
// is attached, single-stepping was forced, or Steps is inside the
// arming window.
func (m *Machine) fastLimit(stop uint64) uint64 {
	if m.singleStep || m.recordTrace || m.pageLog != nil {
		return 0
	}
	lim := stop
	if m.StepLimit < lim {
		lim = m.StepLimit
	}
	if m.armEnd > m.armStart {
		if m.Steps >= m.armStart && m.Steps < m.armEnd {
			return 0
		}
		if m.Steps < m.armStart && m.armStart < lim {
			lim = m.armStart
		}
	}
	return lim
}

// runFast executes micro-ops until limit, exit, an un-translated
// address, or an error. It reports whether any step executed (moved ==
// false means the caller must single-step to make progress). RIP is
// valid on every return path; errors are returned with RIP at the
// faulting instruction and the step counted, exactly like Step.
func (m *Machine) runFast(limit uint64) (bool, error) {
	uops, i := m.fastLookup(m.RIP)
	if i < 0 {
		return false, nil
	}
	gen := m.Mem.codeGen
	moved := false
	for {
		if m.Steps >= limit {
			m.RIP = uops[i].addr
			return moved, nil
		}
		u := &uops[i]
		m.Steps++
		if err := m.execUop(u); err != nil {
			m.RIP = u.addr
			return true, err
		}
		moved = true
		if u.flags&uFlagCF != 0 {
			if m.Exited {
				return true, nil
			}
			uops, i = m.fastLookup(m.RIP)
			if i < 0 {
				return true, nil
			}
			gen = m.Mem.codeGen
			continue
		}
		if u.flags&uFlagMemW != 0 && m.Mem.codeGen != gen {
			// A store touched executable bytes: the stream may now be
			// stale. Surface at the fall-through and let the outer loop
			// re-resolve against the new generation.
			m.RIP = u.next
			return true, nil
		}
		if u.flags&uFlagSeq != 0 {
			i++
			continue
		}
		m.RIP = u.next
		uops, i = m.fastLookup(m.RIP)
		if i < 0 {
			return true, nil
		}
		gen = m.Mem.codeGen
	}
}
