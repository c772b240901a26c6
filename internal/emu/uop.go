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
// Two uop sources exist. A Program is translated once per binary from
// an entry snapshot's whole executable image and shared read-only,
// together with its decoded instructions, by every machine resumed
// from that snapshot or from a snapshot of such a machine (dense
// index). Machines without a program (cold starts) translate private
// blocks lazily from their own memory.
//
// A machine whose code mutated (a bit flip, a self-modifying store)
// keeps its Program, which describes load-time code, as an overlay:
// Memory records the byte ranges each mutation changed, a program uop
// serves the machine only if its encoding misses every recorded range,
// and the private translation supplies the rest — the edited
// instructions and any address the program never decoded (a flip that
// changes an instruction's length shifts decoding). Private blocks end
// where the program serves again. The indices of the program uops an edit
// poisons are computed once per code generation, so the runner's only
// per-step cost is one index compare on a fall-through advance.
//
// Correctness contract: the fast path is bit-identical to Step. It
// only runs while no hook arming window is open, no trace is recorded
// and single-stepping is not forced (Machine.fastLimit); it logs the
// page of each uop's first and last encoded byte before counting the
// step, exactly like Step's page log. Errors leave RIP at the faulting
// instruction with the step already counted exactly like Step, RunUntil
// boundaries pause at precise step counts, and a uop that may write
// memory re-checks the code generation so self-modifying stores drop
// back to the interpreter before a stale block executes. Arithmetic
// flags are lazy (flagRecord, see runUops) and materialized before
// runFast returns, so RFLAGS is exact at every pause. The differential
// fuzz targets (FuzzUopTranslator, FuzzProgramOverlay,
// FuzzUopStateParity) and the campaign parity tests enforce the
// contract.
package emu

import (
	"cmp"
	"math"
	"slices"

	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/elf"
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

// alu evaluates an ALU uop's result exactly like the corresponding
// exec case and leaves its flags as a pending record (Machine.cc). ADC
// and SBB read CF, so they materialize and compute eagerly. For CMP and
// TEST the caller discards the result. runUops computes the common
// 64-bit register forms itself and calls alu for the rest.
func (m *Machine) alu(op isa.Op, a, b uint64, w uint8) uint64 {
	mask := widthMask(w)
	a &= mask
	b &= mask
	var r uint64
	var cf bool
	kind := ccLogic
	switch op {
	case isa.ADD:
		r, cf = addCarry(a, b, 0, w)
		kind = ccAdd
	case isa.SUB, isa.CMP:
		r, cf = subBorrow(a, b, 0, w)
		kind = ccSub
	case isa.AND, isa.TEST:
		r = a & b
	case isa.OR:
		r = a | b
	case isa.XOR:
		r = a ^ b
	case isa.IMUL:
		r, cf = imul(a, b, w)
		kind = ccImul
	case isa.ADC, isa.SBB:
		m.flushFlags()
		f := flagState{&m.Rflags}
		carry := uint64(0)
		if m.Rflags&isa.FlagCF != 0 {
			carry = 1
		}
		if op == isa.ADC {
			return f.addFlags(a, b, carry, w)
		}
		return f.subFlags(a, b, carry, w)
	default:
		return 0
	}
	m.cc.set(kind, w, a, b, r, cf)
	return r
}

// shiftKind maps a shift op to its flag-record kind.
func shiftKind(op isa.Op) uint8 {
	switch op {
	case isa.SHL:
		return ccShl
	case isa.SHR:
		return ccShr
	}
	return ccSar
}

// Program is an immutable code artifact of a binary's load-time code:
// the decoded instructions, one per micro-op and index-aligned with the
// micro-op stream translated from them, plus a dense address index
// into both (the per-step decode cache is an index instead of a map
// hash). TranslateImage builds it once per binary from an entry
// snapshot's whole executable image; the snapshot it seeds hands it to
// every machine resumed from it, and every snapshot of such a machine
// keeps it (see Snapshot.SeedProgram).
type Program struct {
	base  uint64
	insts []isa.Inst // decoded instructions; insts[i] is uops[i]'s
	idx   []int32    // addr-base -> uop index + 1; 0 = not translated
	uops  []uop
}

// translate builds a Program from decoded instructions at distinct
// addresses, taking ownership of the slice: it walks them in address
// order and translates each into the uop at its own index. Returns nil
// for no instructions.
func translate(insts []isa.Inst) *Program {
	if len(insts) == 0 {
		return nil
	}
	slices.SortFunc(insts, func(a, b isa.Inst) int { return cmp.Compare(a.Addr, b.Addr) })
	lo := insts[0].Addr
	p := &Program{
		base:  lo,
		insts: insts,
		idx:   make([]int32, insts[len(insts)-1].Addr-lo+1),
		uops:  make([]uop, len(insts)),
	}
	for i := range insts {
		// The decoded instructions are stable for the program's
		// lifetime, so generic uops may point straight into them.
		translateInst(&p.insts[i], &p.uops[i])
		p.idx[insts[i].Addr-lo] = int32(i + 1)
		if i > 0 {
			if pu := &p.uops[i-1]; pu.flags&uFlagCF == 0 && pu.next == p.uops[i].addr {
				pu.flags |= uFlagSeq
			}
		}
	}
	return p
}

// TranslateImage decodes the snapshot's whole executable image into a
// Program, so machines resumed from it translate nothing themselves
// while they run on that image, and single-step without decoding while
// their code is unmutated. Each executable region is swept linearly
// from its first byte (a byte that does not decode is stepped over).
// Bytes are read through Memory.Fetch, so a window cut short at the end
// of executable memory decodes exactly as a runtime fetch does. An
// address off the sweep (a branch into the middle of a swept
// instruction) stays with each machine's private translation. Returns
// nil for a snapshot whose code changed since load (a Program always
// describes load-time code), and when the executable span exceeds
// maxPrivSpan (1 MiB): such a binary runs on the single-step
// interpreter, as its private translations already do.
func TranslateImage(s *Snapshot) *Program {
	if s.mem.codeGen != 0 {
		return nil
	}
	m := s.Resume(Config{})
	defer m.Release()
	lo, hi := m.Mem.execSpan()
	if hi <= lo || hi-lo > maxPrivSpan {
		return nil
	}
	// Sized for instructions of 4 bytes on average (rewritten code runs
	// longer), so the sweep does not regrow the slice it hands over.
	// Every session holds its program, so count executable bytes, not
	// the span: sections far apart leave a gap that decodes nothing.
	var size uint64
	for _, r := range m.Mem.regions {
		if r.perm&elf.FlagExec != 0 {
			size += r.size
		}
	}
	insts := make([]isa.Inst, 0, min(size, hi-lo)/4)
	for _, r := range m.Mem.regions {
		if r.perm&elf.FlagExec == 0 {
			continue
		}
		for pc := r.addr; pc < r.addr+r.size; {
			n, err := m.Mem.Fetch(pc, m.fetchBuf[:])
			var in isa.Inst
			if err == nil {
				in, err = decode.Decode(m.fetchBuf[:n], pc)
			}
			if err != nil {
				pc++
				continue
			}
			insts = append(insts, in)
			pc += uint64(in.EncLen)
		}
	}
	return translate(insts)
}

// Lookup returns the instruction the program decoded at addr, or nil.
// The instruction is shared by every machine the program serves;
// callers must not mutate it.
func (p *Program) Lookup(addr uint64) *isa.Inst {
	if off := addr - p.base; off < uint64(len(p.idx)) {
		if i := p.idx[off]; i > 0 {
			return &p.insts[i-1]
		}
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
// address (the block merges into the existing stream), the first
// address the shared program serves cleanly, or the size cap. Every
// instruction in the block gets its own index entry, so branches into
// the middle of a translated block resolve without retranslation.
// Returns the index of addr's uop, or -1 when the first instruction is
// untranslatable — the caller single-steps and the interpreter
// reproduces the exact error.
func (m *Machine) translateBlock(p *privProg, addr uint64) int {
	start := len(p.uops)
	pc := addr
	for len(p.uops)-start < maxPrivBlock {
		off := pc - p.base
		if off >= uint64(len(p.idx)) || p.idx[off] != 0 {
			break // left the span, or merged into a translated stream
		}
		if pc != addr && m.prog != nil {
			if j, _ := m.progAt(m.prog, pc); j >= 0 {
				break // the shared program serves the rest
			}
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

// noStop is the stop index of a stream with no poisoned uop ahead.
const noStop = math.MaxInt

// fastLookup resolves the micro-op stream containing addr: the shared
// program first, then the machine-private translation, growing it on
// demand. A stale private translation is reset wholesale. Returns the
// stream, addr's index in it, and stop — the index of the first uop
// after it that the runner must not reach by fall-through (a program
// uop an edit poisoned; noStop for none). A nil stream means addr has
// no translation (the caller single-steps).
func (m *Machine) fastLookup(addr uint64) ([]uop, int, int) {
	if p := m.prog; p != nil {
		if i, stop := m.progAt(p, addr); i >= 0 {
			return p.uops, i, stop
		}
	}
	gen := m.Mem.codeGen
	p := m.priv
	if p == nil || m.privGen != gen {
		if p = m.privReset(gen); p == nil {
			return nil, -1, 0
		}
	}
	off := addr - p.base
	if off >= uint64(len(p.idx)) {
		return nil, -1, 0
	}
	i := p.idx[off]
	if i == 0 {
		if j := m.translateBlock(p, addr); j >= 0 {
			return p.uops, j, noStop
		}
		return nil, -1, 0
	}
	if i < 0 {
		return nil, -1, 0
	}
	return p.uops, int(i - 1), noStop
}

// progAt returns the index of the program uop that serves addr
// cleanly, plus the index of the first poisoned uop after it (noStop
// when none); i is -1 when the program has no uop at addr or an edit
// poisoned it. The program stops serving the machine for good once its
// edit record overflows: the bytes outside the recorded ranges are then
// no longer known to be the load-time bytes the program decoded.
func (m *Machine) progAt(p *Program, addr uint64) (i, stop int) {
	off := addr - p.base
	if off >= uint64(len(p.idx)) || p.idx[off] == 0 {
		return -1, 0
	}
	i = int(p.idx[off] - 1)
	gen := m.Mem.codeGen
	if gen == 0 {
		return i, noStop
	}
	if m.poisonGen != gen {
		if m.Mem.edits.full() {
			m.prog = nil
			return -1, 0
		}
		m.poisonFor(p, gen)
	}
	// The list is sorted and short (an edit poisons a uop or two), so
	// a scan beats a binary search here.
	for _, j := range m.poison {
		switch {
		case int(j) == i:
			return -1, 0
		case int(j) > i:
			return i, int(j)
		}
	}
	return i, noStop
}

// poisonFor lists, sorted, the program uops whose encoding [addr, next)
// overlaps a range of the memory's edit record, for code generation
// gen (never zero: only a mutated machine has edits). A uop starting
// up to MaxInstLen-1 bytes before a range can reach into it.
func (m *Machine) poisonFor(p *Program, gen uint64) {
	m.poison = m.poisonBuf[:0]
	span := p.base + uint64(len(p.idx))
	e := &m.Mem.edits
	for _, r := range e.r[:e.n] {
		lo := p.base
		if r.lo > p.base+decode.MaxInstLen-1 {
			lo = r.lo - (decode.MaxInstLen - 1)
		}
		for a := lo; a < min(r.hi, span); a++ {
			if j := p.idx[a-p.base]; j > 0 && p.uops[j-1].next > r.lo {
				m.poison = append(m.poison, j-1)
			}
		}
	}
	slices.Sort(m.poison)
	m.poison = slices.Compact(m.poison)
	m.poisonGen = gen
}

// fastLimit returns the step count up to which the machine may run on
// the micro-op fast path right now: the caller's stop boundary,
// clamped by the step limit and by the start of the next hook arming
// window. Zero (or any value <= Steps) means single-step: a trace is
// recorded, single-stepping was forced, or Steps is inside an arming
// window. The page log needs no single-stepping; runFast keeps it.
func (m *Machine) fastLimit(stop uint64) uint64 {
	if m.singleStep || m.recordTrace {
		return 0
	}
	lim := min(stop, m.StepLimit)
	for _, w := range m.arm.w[:m.arm.n] {
		if m.Steps < w.start {
			return min(lim, w.start)
		}
		if m.Steps < w.end {
			return 0
		}
	}
	return lim
}

// runFast executes micro-ops until limit, exit, an un-translated
// address, or an error. It reports whether any step executed (moved ==
// false means the caller must single-step to make progress). RIP is
// valid on every return path; errors are returned with RIP at the
// faulting instruction and the step counted, exactly like Step. With a
// page log attached, each uop logs the pages of its first and last
// encoded byte before its step counts, like Step does.
//
// Every return materializes the pending flag record, so whenever
// runFast is not running Rflags is exact: Step, hooks, snapshots,
// state digests and results never see a record.
func (m *Machine) runFast(limit uint64) (bool, error) {
	moved, err := m.runUops(limit)
	m.flushFlags()
	return moved, err
}

// runUops is runFast's loop and the one place a micro-op executes; it
// may return with a flag record pending. Non-control-flow uops do not
// update RIP (the loop maintains it lazily); control-flow uops
// (uFlagCF) set RIP exactly like exec. A uop that fails leaves RIP at
// its own address with its step counted, matching the interpreter's
// state after a failed exec.
//
// Flags are lazy: flag-writing uops leave a record in m.cc instead of
// RFLAGS, Jcc and SETcc answer the common conditions from it (cond),
// and every other reader materializes it first (flushFlags). A
// memory-destination ALU uop writes its record before the store, so a
// faulting store leaves the flags exec would have left.
//
// The shapes the fault campaigns' hash loops spend their steps on are
// computed in place rather than through alu, reg and setReg: 64-bit
// register ALU ops, 64-bit INC/DEC, Jcc on E/NE, and byte loads whose
// TLB slot holds a readable page. Each computes exactly what the
// general form below it does.
func (m *Machine) runUops(limit uint64) (bool, error) {
	uops, i, stop := m.fastLookup(m.RIP)
	if i < 0 {
		return false, nil
	}
	gen := m.Mem.codeGen
	logPages := m.pageLog != nil
	moved := false
	for {
		if m.Steps >= limit {
			m.RIP = uops[i].addr
			return moved, nil
		}
		u := &uops[i]
		if logPages {
			m.notePage(u.addr)
			m.notePage(u.next - 1)
		}
		m.Steps++
		var err error
		switch u.kind {
		case uNop:

		case uMovRR:
			m.setReg(u.dst, m.reg(u.src, u.width2), u.width)
		case uMovRI:
			m.setReg(u.dst, uint64(u.imm), u.width)
		case uMovRM:
			var v uint64
			if v, err = m.Mem.ReadUint(m.uaddr(u), u.width2); err == nil {
				m.setReg(u.dst, v, u.width)
			}
		case uMovMR:
			err = m.Mem.WriteUint(m.uaddr(u), m.reg(u.src, u.width2), u.width)
		case uMovMI:
			err = m.Mem.WriteUint(m.uaddr(u), uint64(u.imm), u.width)

		case uMovzxR:
			m.setReg(u.dst, m.reg(u.src, u.width2)&0xFF, u.width)
		case uMovzxM:
			addr := m.uaddr(u)
			if u.width2 == 1 {
				// ReadUint's fast path for one byte, straight off the
				// TLB slot; a miss takes ReadUint below.
				pa := addr &^ (pageSize - 1)
				if e := &m.Mem.tlb[(pa>>12)&(tlbSize-1)]; e.pa == pa && e.p != nil && e.p.perm&elf.FlagRead != 0 {
					m.setReg(u.dst, uint64(e.p.data[addr&(pageSize-1)]), u.width)
					break
				}
			}
			var v uint64
			if v, err = m.Mem.ReadUint(addr, u.width2); err == nil {
				m.setReg(u.dst, v&0xFF, u.width)
			}
		case uMovsxR:
			m.setReg(u.dst, uint64(int64(int8(m.reg(u.src, u.width2)))), u.width)
		case uMovsxM:
			var v uint64
			if v, err = m.Mem.ReadUint(m.uaddr(u), u.width2); err == nil {
				m.setReg(u.dst, uint64(int64(int8(v))), u.width)
			}

		case uLea:
			m.setReg(u.dst, m.uaddr(u), u.width)

		case uAluRR:
			if u.width == 8 && u.width2 == 8 {
				// alu at width 8, whose masks are no-ops.
				a, b := m.Regs[u.dst], m.Regs[u.src]
				var r uint64
				var cf bool
				switch u.op {
				case isa.XOR:
					r = a ^ b
					m.cc.set(ccLogic, 8, a, b, r, false)
				case isa.SUB, isa.CMP:
					r, cf = subBorrow(a, b, 0, 8)
					m.cc.set(ccSub, 8, a, b, r, cf)
				case isa.IMUL:
					r, cf = imul64(a, b)
					m.cc.set(ccImul, 8, a, b, r, cf)
				case isa.ADD:
					r, cf = addCarry(a, b, 0, 8)
					m.cc.set(ccAdd, 8, a, b, r, cf)
				case isa.AND, isa.TEST:
					r = a & b
					m.cc.set(ccLogic, 8, a, b, r, false)
				case isa.OR:
					r = a | b
					m.cc.set(ccLogic, 8, a, b, r, false)
				default:
					r = m.alu(u.op, a, b, 8)
				}
				if u.op != isa.CMP && u.op != isa.TEST {
					m.Regs[u.dst] = r
				}
				break
			}
			r := m.alu(u.op, m.reg(u.dst, u.width), m.reg(u.src, u.width2), u.width)
			if u.op != isa.CMP && u.op != isa.TEST {
				m.setReg(u.dst, r, u.width)
			}
		case uAluRI:
			r := m.alu(u.op, m.reg(u.dst, u.width), uint64(u.imm), u.width)
			if u.op != isa.CMP && u.op != isa.TEST {
				m.setReg(u.dst, r, u.width)
			}
		case uAluRM:
			var b uint64
			if b, err = m.Mem.ReadUint(m.uaddr(u), u.width2); err == nil {
				r := m.alu(u.op, m.reg(u.dst, u.width), b, u.width)
				if u.op != isa.CMP && u.op != isa.TEST {
					m.setReg(u.dst, r, u.width)
				}
			}
		case uAluMR, uAluMI:
			addr := m.uaddr(u)
			var a uint64
			if a, err = m.Mem.ReadUint(addr, u.width); err != nil {
				break
			}
			b := uint64(u.imm)
			if u.kind == uAluMR {
				b = m.reg(u.src, u.width2)
			}
			r := m.alu(u.op, a, b, u.width)
			if u.op != isa.CMP && u.op != isa.TEST {
				err = m.Mem.WriteUint(addr, r, u.width)
			}

		case uShiftR:
			// A zero count writes the register (zero-extending a 32-bit
			// destination) but no flags.
			a := m.reg(u.dst, u.width)
			r := a
			if count := uint(u.imm); count != 0 {
				var cf bool
				r, cf = shiftCarry(u.op, a, count, u.width)
				m.cc.set(shiftKind(u.op), u.width, a, uint64(count), r, cf)
			}
			m.setReg(u.dst, r, u.width)

		case uUnaryR:
			// INC and DEC preserve CF: they carry it into the new record
			// without materializing the old one.
			if u.width == 8 && (u.op == isa.INC || u.op == isa.DEC) {
				a := m.Regs[u.dst]
				r, kind := a+1, ccInc
				if u.op == isa.DEC {
					r, kind = a-1, ccDec
				}
				m.cc.set(kind, 8, a, 0, r, m.carry())
				m.Regs[u.dst] = r
				break
			}
			a := m.reg(u.dst, u.width)
			mask := widthMask(u.width)
			var r uint64
			switch u.op {
			case isa.NOT:
				r = ^a & mask
			case isa.NEG:
				var cf bool
				r, cf = subBorrow(0, a, 0, u.width)
				m.cc.set(ccSub, u.width, 0, a, r, cf)
			case isa.INC:
				r = (a + 1) & mask
				m.cc.set(ccInc, u.width, a, 0, r, m.carry())
			case isa.DEC:
				r = (a - 1) & mask
				m.cc.set(ccDec, u.width, a, 0, r, m.carry())
			}
			m.setReg(u.dst, r, u.width)

		case uPush:
			err = m.push64(m.Regs[u.dst])
		case uPop:
			var v uint64
			if v, err = m.pop64(); err == nil {
				m.Regs[u.dst] = v
			}
		case uPushfq:
			m.flushFlags()
			err = m.push64(m.Rflags)
		case uPopfq:
			var v uint64
			if v, err = m.pop64(); err == nil {
				m.cc.kind = ccNone // overwritten whole: never materialized
				m.Rflags = isa.FlagsFixed | (v & isa.FlagsArithMask)
			}

		case uSetccR:
			v := uint64(0)
			if m.cond(u.cond) {
				v = 1
			}
			m.setReg(u.dst, v, u.width)

		case uJmp:
			m.RIP = u.target
		case uJcc:
			var taken bool
			switch {
			case m.cc.kind != ccNone && u.cond == isa.CondNE:
				taken = m.cc.r != 0
			case m.cc.kind != ccNone && u.cond == isa.CondE:
				taken = m.cc.r == 0
			default:
				taken = m.cond(u.cond)
			}
			if taken {
				m.RIP = u.target
			} else {
				m.RIP = u.next
			}
		case uCall:
			if err = m.push64(u.next); err == nil {
				m.RIP = u.target
			}
		case uRet:
			var v uint64
			if v, err = m.pop64(); err == nil {
				m.RIP = v
			}
		case uSyscall:
			m.flushFlags() // syscall copies RFLAGS into R11
			if err = m.syscall(u.next); err == nil {
				m.RIP = u.next
			}

		default: // uGeneric: exec reads and writes Rflags eagerly
			m.flushFlags()
			err = m.exec(u.inst)
		}
		if err != nil {
			m.RIP = u.addr
			return true, err
		}
		moved = true
		if u.flags&uFlagCF != 0 {
			if m.Exited {
				return true, nil
			}
			uops, i, stop = m.fastLookup(m.RIP)
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
			if i++; i != stop {
				continue
			}
			// The fall-through uop overlaps an edit: re-resolve below,
			// which hands its address to the private translation.
		}
		m.RIP = u.next
		uops, i, stop = m.fastLookup(m.RIP)
		if i < 0 {
			return true, nil
		}
		gen = m.Mem.codeGen
	}
}
