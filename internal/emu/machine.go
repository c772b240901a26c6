// Package emu is an interpreting emulator for the x86-64 subset running
// static Linux-style binaries: 16 GPRs, RFLAGS, paged memory, a small
// syscall surface (read/write/exit) and deterministic execution.
//
// It plays the role Qiling/Unicorn play in the paper: the substrate the
// faulter drives to simulate instruction-skip and bit-flip faults and to
// observe whether the program's externally visible behaviour (stdout +
// exit status) changes. Two additions make exhaustive campaigns cheap
// and fault models composable: copy-on-write machine snapshots
// (snapshot.go) that let thousands of injection runs fork a shared
// golden run, and chaining fetch/step hooks, each armed for a step
// window (Config.AddFetchHookWindow/AddStepHookWindow), so several
// faults can compose onto one run (order-2 and order-3 campaigns).
package emu

import (
	"errors"
	"fmt"

	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/isa"
)

// Execution faults (crashes, in the fault-model sense).
var (
	ErrStepLimit  = errors.New("emu: step limit exceeded")
	ErrHalted     = errors.New("emu: hlt/ud2 executed")
	ErrBadSyscall = errors.New("emu: unsupported syscall")
	ErrNotExited  = errors.New("emu: program did not exit")
)

// The step limit a zero Config.StepLimit means, and the stack every
// machine maps below DefaultStackTop.
const (
	DefaultStepLimit = 4 << 20
	DefaultStackSize = 2 << 20
	DefaultStackTop  = 0x7FFF_FFF0_0000
)

// StepAction is returned by a step hook (Config.AddStepHookWindow) to
// control execution of the decoded instruction.
type StepAction uint8

// Step actions.
const (
	ActContinue StepAction = iota
	ActSkip                // skip the instruction (instruction-skip fault model)
)

// Config parameterizes a Machine.
type Config struct {
	Stdin     []byte
	StepLimit uint64

	// RecordTrace captures each executed instruction's address and
	// length (before any skip decision).
	RecordTrace bool

	// SingleStep forces the per-step interpreter even where the
	// predecoded micro-op fast path (uop.go) would apply. The two
	// engines are bit-identical by contract; this knob exists so
	// differential tests and fuzzers can prove it, never for
	// correctness. Default off: the fast path is always on.
	SingleStep bool

	// The hook chains, installed only through AddFetchHookWindow and
	// AddStepHookWindow. fetchHook runs before each fetch (the fault
	// injector mutates instruction bytes there at a precise dynamic
	// step index); stepHook runs after decode, before execution, and
	// must not mutate the instruction, which is shared with the
	// machine's caches.
	fetchHook func(m *Machine)
	stepHook  func(m *Machine, in *isa.Inst) StepAction

	// Hook arming windows: hooks may only act during steps s inside one
	// of the windows they were installed with (s is the machine's
	// pre-increment step counter — the dynamic trace index of the
	// instruction about to execute). arm lists those windows, sorted
	// and merged; hookStart/hookEnd is their union (empty when no hook
	// is installed). Outside every window the machine may dispatch
	// predecoded micro-op blocks without calling the hooks at all;
	// inside one, it single-steps so every hook observes every step.
	arm       armWindows
	hookStart uint64
	hookEnd   uint64
}

// HookWindow returns the step range [start, end) in which the
// config's hooks may act: the union of the windows they were installed
// with, empty when no hook is installed. A machine that has completed
// end steps runs exactly like an unhooked one from then on — the
// effect horizon of the faults the hooks realize.
func (c *Config) HookWindow() (start, end uint64) { return c.hookStart, c.hookEnd }

// noteWindow adds [start, end) to the config's arming windows and
// unions it into the hook window. Called before the hook is chained,
// so the first hook's window starts the union.
func (c *Config) noteWindow(start, end uint64) {
	c.arm.add(start, end)
	if c.fetchHook == nil && c.stepHook == nil {
		c.hookStart, c.hookEnd = start, end
		return
	}
	c.hookStart = min(c.hookStart, start)
	c.hookEnd = max(c.hookEnd, end)
}

// maxArmWindows is how many disjoint arming windows a config keeps
// apart: enough for a triple's three faults and one more.
const maxArmWindows = 4

// armWindows is a short sorted list of disjoint, non-touching step
// windows [start, end), held by value so configs and machines carry it
// without allocating. A list that would outgrow its capacity collapses
// to the union of its windows, which single-steps more but stays sound.
type armWindows struct {
	w [maxArmWindows]struct{ start, end uint64 }
	n int
}

// add inserts [start, end), merging every window it overlaps or
// touches. An empty window arms nothing and is dropped.
func (a *armWindows) add(start, end uint64) {
	if start >= end {
		return
	}
	var out armWindows
	placed := false
	for _, w := range a.w[:a.n] {
		switch {
		case w.end < start:
			out.push(w.start, w.end)
		case end < w.start:
			if !placed {
				out.push(start, end)
				placed = true
			}
			out.push(w.start, w.end)
		default:
			start, end = min(start, w.start), max(end, w.end)
		}
	}
	if !placed {
		out.push(start, end)
	}
	*a = out
}

// push appends a window past every window in the list, collapsing the
// list to its union when it is full.
func (a *armWindows) push(start, end uint64) {
	if a.n == maxArmWindows {
		a.w[0].end, a.n = end, 1
		return
	}
	a.w[a.n].start, a.w[a.n].end = start, end
	a.n++
}

// AddFetchHookWindow chains h after any already-installed fetch hook,
// so several fault models compose onto one run (the multi-fault
// campaigns inject two or three independent faults this way), and
// declares that h only acts during steps s with start <= s < end
// (pre-increment step counter, i.e. dynamic trace indices). Outside the
// union of all declared windows the machine may run predecoded micro-op
// blocks without invoking any hook, and the fault engine treats a
// machine past the window's end as unhooked — a window that is too
// narrow is a soundness bug. A hook that acts during the whole run
// declares [0, ^uint64(0)).
func (c *Config) AddFetchHookWindow(h func(m *Machine), start, end uint64) {
	c.noteWindow(start, end)
	if prev := c.fetchHook; prev != nil {
		c.fetchHook = func(m *Machine) { prev(m); h(m) }
	} else {
		c.fetchHook = h
	}
}

// AddStepHookWindow chains h after any already-installed step hook and
// declares its arming window [start, end), with the same contract as
// AddFetchHookWindow. Hooks compose permissively: if any hook in the
// chain asks to skip the instruction, it is skipped (later hooks still
// run, so their own step-indexed state machines observe every step).
func (c *Config) AddStepHookWindow(h func(m *Machine, in *isa.Inst) StepAction, start, end uint64) {
	c.noteWindow(start, end)
	if prev := c.stepHook; prev != nil {
		c.stepHook = func(m *Machine, in *isa.Inst) StepAction {
			a := prev(m, in)
			if b := h(m, in); b == ActSkip {
				return ActSkip
			}
			return a
		}
	} else {
		c.stepHook = h
	}
}

// TraceEntry is one executed instruction in a recorded trace.
type TraceEntry struct {
	Addr uint64
	Len  int
	Op   isa.Op
	Cond isa.Cond
}

// Machine is a single-threaded virtual CPU plus address space.
type Machine struct {
	Regs   [isa.NumRegs]uint64
	RIP    uint64
	Rflags uint64
	Mem    *Memory

	// cc is the micro-op fast path's pending flag record (lazy flags,
	// flags.go): flag-writing uops record their inputs here instead of
	// computing RFLAGS, and readers materialize it into Rflags only when
	// they need bits the record does not answer directly. runFast
	// materializes it before every return, so outside runFast it is
	// always empty and Rflags is exact.
	cc flagRecord

	Stdin  []byte
	inPos  int
	Stdout []byte
	Stderr []byte

	Steps     uint64
	StepLimit uint64

	Exited   bool
	ExitCode int

	Trace       []TraceEntry
	recordTrace bool

	fetchHook func(m *Machine)
	stepHook  func(m *Machine, in *isa.Inst) StepAction

	fetchBuf [decode.MaxInstLen]byte

	// Decoded-instruction cache, keyed by address and cleared when
	// Memory.CodeGeneration changes (pokes, bit flips, self-modifying
	// stores). Fault campaigns execute the same instructions millions
	// of times; decoding once per address is the difference between
	// minutes and seconds per campaign. Step consults it only for
	// addresses prog does not serve. Allocated lazily (machines fully
	// served by a shared Program never touch it) and kept, cleared,
	// across Release and the machine pool (see Release), so interpreting
	// machines do not allocate a fresh map each.
	icache    map[uint64]*isa.Inst
	icacheGen uint64

	// Micro-op fast path (uop.go). prog is an optional shared
	// predecoded program seeded from a Snapshot; Step reads its
	// instructions while code is unmutated, and once code mutates it
	// serves only uops no recorded edit touches, and poison lists the
	// ones an edit does touch (sorted uop indices, valid for poisonGen;
	// poisonBuf backs the usual short list). priv holds blocks this
	// machine translated itself (lazily, keyed by entry address, valid
	// for privGen). arm holds the config's hook arming windows: while
	// Steps is inside one of them — or when singleStep or trace
	// recording is on — the machine single-steps so hooks and the trace
	// observe every instruction; everywhere else RunUntil dispatches
	// straight-line micro-op blocks. armEnd is the end of their union.
	prog       *Program
	poison     []int32
	poisonBuf  [4]int32
	poisonGen  uint64
	priv       *privProg
	privGen    uint64
	arm        armWindows
	armEnd     uint64
	singleStep bool
}

// New builds a machine with the binary's sections mapped, a stack, and
// RIP at the entry point.
func New(bin *elf.Binary, cfg Config) *Machine {
	mem := memoryPool.Get().(*Memory)
	if mem.pages == nil {
		mem.pages = make(map[uint64]*page)
	}
	m := resumeMachine()
	m.Mem = mem
	m.configure(cfg)
	for _, s := range bin.Sections {
		m.Mem.LoadSection(s)
	}
	m.Mem.Map(DefaultStackTop-DefaultStackSize, DefaultStackSize, elf.FlagRead|elf.FlagWrite)
	m.Regs[isa.RSP] = DefaultStackTop - 64 // a little headroom like a real loader
	m.RIP = bin.Entry
	m.Rflags = isa.FlagsFixed
	return m
}

// configure applies a Config's run controls to a fresh machine shell —
// the one place New and Snapshot.Resume read a Config. A zero StepLimit
// means DefaultStepLimit; a nil Stdin keeps the machine's input stream.
func (m *Machine) configure(cfg Config) {
	m.StepLimit = cfg.StepLimit
	if m.StepLimit == 0 {
		m.StepLimit = DefaultStepLimit
	}
	if cfg.Stdin != nil {
		m.Stdin = cfg.Stdin
	}
	m.recordTrace = cfg.RecordTrace
	m.singleStep = cfg.SingleStep
	m.fetchHook, m.stepHook = cfg.fetchHook, cfg.stepHook
	m.arm = cfg.arm
	_, m.armEnd = cfg.HookWindow()
}

// Result summarizes a finished (or crashed) run.
type Result struct {
	Exited   bool
	ExitCode int
	Steps    uint64
	Stdout   []byte
	Stderr   []byte
}

// Run executes until exit, fault, or step limit. The returned error is
// nil only for a clean exit via the exit syscall.
func (m *Machine) Run() (Result, error) {
	// Steps can never reach MaxUint64 before StepLimit, so this is the
	// plain run-to-completion loop.
	res, _, err := m.RunUntil(^uint64(0))
	return res, err
}

// HooksInertAt returns the step count from which the machine's hooks
// can no longer act — the end of the config's hook arming window, zero
// when no hook is installed, ^uint64(0) for a hook armed for the whole
// run — so a machine paused at or past it runs exactly like an
// unhooked one.
func (m *Machine) HooksInertAt() uint64 { return m.armEnd }

// RunUntil executes until the machine has completed `stop` steps, or
// until exit, fault, or step limit, whichever comes first. It returns
// exactly like Run, plus done=true when the run finished (exited or
// errored) before reaching the stop step — done=false means the
// machine is paused at an instruction boundary with Steps == stop and
// can be snapshotted or stepped further. The order-2 snapshot tree
// pauses a first-fault run this way once the fault's hooks are inert,
// snapshots it, and forks the snapshot per second fault.
func (m *Machine) RunUntil(stop uint64) (Result, bool, error) {
	var err error
	for !m.Exited && m.Steps < stop {
		if m.Steps >= m.StepLimit {
			err = ErrStepLimit
			break
		}
		// Superstep dispatch: outside hook arming windows (and without
		// a trace recorder) execution proceeds through predecoded
		// micro-op blocks, pausing exactly at fastLimit — the next stop
		// boundary, step limit, or hook window start. The single-step
		// interpreter below handles everything the fast path declines.
		if lim := m.fastLimit(stop); lim > m.Steps {
			moved, ferr := m.runFast(lim)
			if ferr != nil {
				err = ferr
				break
			}
			if moved {
				continue
			}
		}
		if err = m.Step(); err != nil {
			break
		}
	}
	res := Result{
		Exited:   m.Exited,
		ExitCode: m.ExitCode,
		Steps:    m.Steps,
		Stdout:   m.Stdout,
		Stderr:   m.Stderr,
	}
	return res, m.Exited || err != nil, err
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.fetchHook != nil {
		m.fetchHook(m)
	}
	gen := m.Mem.CodeGeneration()
	var in *isa.Inst
	if m.prog != nil && gen == 0 {
		in = m.prog.Lookup(m.RIP) // load-time code: the program's decode holds
	}
	if in == nil {
		if m.icache == nil {
			m.icache = make(map[uint64]*isa.Inst)
		} else if gen != m.icacheGen {
			clear(m.icache)
		}
		m.icacheGen = gen
		in = m.icache[m.RIP]
	}
	if in == nil {
		n, err := m.Mem.Fetch(m.RIP, m.fetchBuf[:])
		if err != nil {
			return err
		}
		dec, err := decode.Decode(m.fetchBuf[:n], m.RIP)
		if err != nil {
			return fmt.Errorf("at %#x: %w", m.RIP, err)
		}
		in = &dec
		m.icache[m.RIP] = in
	}
	if m.recordTrace {
		m.Trace = append(m.Trace, TraceEntry{Addr: m.RIP, Len: in.EncLen, Op: in.Op, Cond: in.Cond})
	}
	m.Steps++
	if m.stepHook != nil {
		if m.stepHook(m, in) == ActSkip {
			m.RIP += uint64(in.EncLen)
			return nil
		}
	}
	return m.exec(in)
}

// reg reads a register at the given width (zero-extended).
func (m *Machine) reg(r isa.Reg, w uint8) uint64 {
	return m.Regs[r] & widthMask(w)
}

// setReg writes a register with x86-64 width semantics: 64-bit writes
// replace, 32-bit writes zero-extend, 8-bit writes merge the low byte.
func (m *Machine) setReg(r isa.Reg, v uint64, w uint8) {
	switch w {
	case 8:
		m.Regs[r] = v
	case 4:
		m.Regs[r] = v & 0xFFFFFFFF
	case 1:
		m.Regs[r] = (m.Regs[r] &^ 0xFF) | (v & 0xFF)
	}
}

// OperandAddr computes the effective address a memory operand resolves
// to in the machine's current state (RIP-relative addressing uses the
// instruction's decoder metadata). Fault injectors use it to locate the
// memory cell an instruction is about to access; op must be a KindMem
// operand of in.
func (m *Machine) OperandAddr(in *isa.Inst, op *isa.Operand) uint64 {
	return m.effAddr(in, &op.Mem)
}

// FlipRegBit toggles one bit (0..63) of a general-purpose register —
// the register-fault primitive. Resumed machines carry private register
// files, so flipping a register never leaks into the snapshot the run
// was forked from.
func (m *Machine) FlipRegBit(r isa.Reg, bit uint) {
	m.Regs[r] ^= 1 << (bit & 63)
}

// effAddr computes the effective address of a memory operand for the
// instruction (RIP-relative uses the end of the instruction).
func (m *Machine) effAddr(in *isa.Inst, mem *isa.Mem) uint64 {
	if mem.RIPRel {
		return in.Addr + uint64(in.EncLen) + uint64(int64(mem.Disp))
	}
	var a uint64
	if mem.Base != isa.NoReg {
		a = m.Regs[mem.Base]
	}
	if mem.Index != isa.NoReg {
		a += m.Regs[mem.Index] * uint64(mem.Scale)
	}
	return a + uint64(int64(mem.Disp))
}

// readOperand loads the value of a reg/imm/mem operand.
func (m *Machine) readOperand(in *isa.Inst, op *isa.Operand) (uint64, error) {
	switch op.Kind {
	case isa.KindReg:
		return m.reg(op.Reg, op.Width), nil
	case isa.KindImm:
		return uint64(op.Imm) & widthMask(op.Width), nil
	case isa.KindMem:
		return m.Mem.ReadUint(m.effAddr(in, &op.Mem), op.Width)
	}
	return 0, fmt.Errorf("emu: read of empty operand in %s", in)
}

// writeOperand stores a value to a reg/mem operand.
func (m *Machine) writeOperand(in *isa.Inst, op *isa.Operand, v uint64) error {
	switch op.Kind {
	case isa.KindReg:
		m.setReg(op.Reg, v, op.Width)
		return nil
	case isa.KindMem:
		return m.Mem.WriteUint(m.effAddr(in, &op.Mem), v, op.Width)
	}
	return fmt.Errorf("emu: write to bad operand in %s", in)
}

func (m *Machine) push64(v uint64) error {
	m.Regs[isa.RSP] -= 8
	return m.Mem.WriteUint(m.Regs[isa.RSP], v, 8)
}

func (m *Machine) pop64() (uint64, error) {
	v, err := m.Mem.ReadUint(m.Regs[isa.RSP], 8)
	if err != nil {
		return 0, err
	}
	m.Regs[isa.RSP] += 8
	return v, nil
}

// exec executes a decoded instruction and advances RIP.
func (m *Machine) exec(in *isa.Inst) error {
	next := in.Addr + uint64(in.EncLen)
	f := flagState{&m.Rflags}

	switch in.Op {
	case isa.MOV:
		v, err := m.readOperand(in, &in.Src)
		if err != nil {
			return err
		}
		if err := m.writeOperand(in, &in.Dst, v); err != nil {
			return err
		}

	case isa.MOVZX:
		v, err := m.readOperand(in, &in.Src)
		if err != nil {
			return err
		}
		m.setReg(in.Dst.Reg, v&0xFF, in.Dst.Width)

	case isa.MOVSX:
		v, err := m.readOperand(in, &in.Src)
		if err != nil {
			return err
		}
		m.setReg(in.Dst.Reg, uint64(int64(int8(v))), in.Dst.Width)

	case isa.LEA:
		m.setReg(in.Dst.Reg, m.effAddr(in, &in.Src.Mem), in.Dst.Width)

	case isa.ADD, isa.ADC, isa.SUB, isa.SBB, isa.CMP, isa.AND, isa.OR, isa.XOR:
		a, err := m.readOperand(in, &in.Dst)
		if err != nil {
			return err
		}
		b, err := m.readOperand(in, &in.Src)
		if err != nil {
			return err
		}
		w := in.Dst.Width
		carry := uint64(0)
		if m.Rflags&isa.FlagCF != 0 {
			carry = 1
		}
		var r uint64
		switch in.Op {
		case isa.ADD:
			r = f.addFlags(a, b, 0, w)
		case isa.ADC:
			r = f.addFlags(a, b, carry, w)
		case isa.SUB, isa.CMP:
			r = f.subFlags(a, b, 0, w)
		case isa.SBB:
			r = f.subFlags(a, b, carry, w)
		case isa.AND:
			r = (a & b) & widthMask(w)
			f.logicFlags(r, w)
		case isa.OR:
			r = (a | b) & widthMask(w)
			f.logicFlags(r, w)
		case isa.XOR:
			r = (a ^ b) & widthMask(w)
			f.logicFlags(r, w)
		}
		if in.Op != isa.CMP {
			if err := m.writeOperand(in, &in.Dst, r); err != nil {
				return err
			}
		}

	case isa.TEST:
		a, err := m.readOperand(in, &in.Dst)
		if err != nil {
			return err
		}
		b, err := m.readOperand(in, &in.Src)
		if err != nil {
			return err
		}
		f.logicFlags(a&b&widthMask(in.Dst.Width), in.Dst.Width)

	case isa.NOT:
		a, err := m.readOperand(in, &in.Dst)
		if err != nil {
			return err
		}
		if err := m.writeOperand(in, &in.Dst, ^a&widthMask(in.Dst.Width)); err != nil {
			return err
		}

	case isa.NEG:
		a, err := m.readOperand(in, &in.Dst)
		if err != nil {
			return err
		}
		r := f.subFlags(0, a, 0, in.Dst.Width)
		if err := m.writeOperand(in, &in.Dst, r); err != nil {
			return err
		}

	case isa.INC, isa.DEC:
		a, err := m.readOperand(in, &in.Dst)
		if err != nil {
			return err
		}
		var r uint64
		if in.Op == isa.INC {
			r = f.incFlags(a, in.Dst.Width)
		} else {
			r = f.decFlags(a, in.Dst.Width)
		}
		if err := m.writeOperand(in, &in.Dst, r); err != nil {
			return err
		}

	case isa.SHL, isa.SHR, isa.SAR:
		a, err := m.readOperand(in, &in.Dst)
		if err != nil {
			return err
		}
		count := uint(in.Src.Imm) & 0x3F
		var r uint64
		switch in.Op {
		case isa.SHL:
			r = f.shlFlags(a, count, in.Dst.Width)
		case isa.SHR:
			r = f.shrFlags(a, count, in.Dst.Width)
		case isa.SAR:
			r = f.sarFlags(a, count, in.Dst.Width)
		}
		if err := m.writeOperand(in, &in.Dst, r); err != nil {
			return err
		}

	case isa.IMUL:
		a, err := m.readOperand(in, &in.Dst)
		if err != nil {
			return err
		}
		b, err := m.readOperand(in, &in.Src)
		if err != nil {
			return err
		}
		r := f.imulFlags(a, b, in.Dst.Width)
		m.setReg(in.Dst.Reg, r, in.Dst.Width)

	case isa.PUSH:
		if err := m.push64(m.Regs[in.Dst.Reg]); err != nil {
			return err
		}

	case isa.POP:
		v, err := m.pop64()
		if err != nil {
			return err
		}
		m.Regs[in.Dst.Reg] = v

	case isa.PUSHFQ:
		if err := m.push64(m.Rflags); err != nil {
			return err
		}

	case isa.POPFQ:
		v, err := m.pop64()
		if err != nil {
			return err
		}
		// Only the arithmetic flags are writable in this subset; the
		// fixed bits stay as the architecture defines for user mode.
		m.Rflags = isa.FlagsFixed | (v & isa.FlagsArithMask)

	case isa.JMP:
		m.RIP = in.Target
		return nil

	case isa.JCC:
		if isa.CondHolds(in.Cond, m.Rflags) {
			m.RIP = in.Target
			return nil
		}

	case isa.CALL:
		if err := m.push64(next); err != nil {
			return err
		}
		m.RIP = in.Target
		return nil

	case isa.RET:
		v, err := m.pop64()
		if err != nil {
			return err
		}
		m.RIP = v
		return nil

	case isa.SETCC:
		v := uint64(0)
		if isa.CondHolds(in.Cond, m.Rflags) {
			v = 1
		}
		if err := m.writeOperand(in, &in.Dst, v); err != nil {
			return err
		}

	case isa.SYSCALL:
		if err := m.syscall(next); err != nil {
			return err
		}

	case isa.NOP:
		// nothing

	case isa.HLT, isa.UD2:
		return fmt.Errorf("at %#x: %w", in.Addr, ErrHalted)

	default:
		return fmt.Errorf("emu: at %#x: unimplemented op %s", in.Addr, in.Op)
	}

	m.RIP = next
	return nil
}
