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
// golden run, and chaining fetch/step hooks
// (Config.AddFetchHook/AddStepHook) so several faults can compose onto
// one run (order-2 pair campaigns).
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

// Default run limits.
const (
	DefaultStepLimit = 4 << 20
	DefaultStackSize = 2 << 20
	DefaultStackTop  = 0x7FFF_FFF0_0000
)

// StepAction is returned by a StepHook to control execution of the
// decoded instruction.
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
	StackSize uint64
	StackTop  uint64

	// RecordTrace captures each executed instruction's address and
	// length (before any skip decision).
	RecordTrace bool

	// RecordPages captures the code pages the run fetches from (see
	// Machine.PageLog) — the execution footprint incremental campaign
	// caches compare against the bytes a patch round changed. Both the
	// interpreter and the micro-op fast path keep the log, identically.
	RecordPages bool

	// SingleStep forces the per-step interpreter even where the
	// predecoded micro-op fast path (uop.go) would apply. The two
	// engines are bit-identical by contract; this knob exists so
	// differential tests and fuzzers can prove it, never for
	// correctness. Default off: the fast path is always on.
	SingleStep bool

	// FetchHook runs before each fetch; the fault injector uses it to
	// mutate instruction bytes at a precise dynamic step index.
	FetchHook func(m *Machine)

	// StepHook runs after decode, before execution. The instruction is
	// shared with the machine's caches and must not be mutated.
	StepHook func(m *Machine, in *isa.Inst) StepAction

	// Hook arming window, maintained by the hook adders below: hooks
	// may only act during steps s with hookStart <= s < hookEnd (s is
	// the machine's pre-increment step counter — the dynamic trace
	// index of the instruction about to execute). Outside the window
	// the machine may dispatch predecoded micro-op blocks without
	// calling the hooks at all; inside it, it single-steps so every
	// hook observes every step. Hooks installed without a window
	// (plain adders, or direct field assignment) arm the machine
	// forever, preserving exact historical semantics.
	hookStart uint64
	hookEnd   uint64
	hookWin   bool // some hook declared a bounded window
	hookAll   bool // some hook has no declared window: arm forever
}

// armedWindow resolves the step range during which installed hooks
// must be able to observe execution: empty when no hooks are set,
// [start, end) when every hook declared a window, all steps otherwise.
func (c *Config) armedWindow() (start, end uint64) {
	if c.FetchHook == nil && c.StepHook == nil {
		return 0, 0
	}
	if c.hookWin && !c.hookAll {
		return c.hookStart, c.hookEnd
	}
	return 0, ^uint64(0)
}

// noteWindow unions [start, end) into the config's hook arming window.
// Hooks that were installed before any window was declared (direct
// field assignment) have unknown reach, so they pin the machine to the
// single-step path forever.
func (c *Config) noteWindow(start, end uint64) {
	if (c.FetchHook != nil || c.StepHook != nil) && !c.hookWin && !c.hookAll {
		c.hookAll = true
	}
	if !c.hookWin {
		c.hookWin = true
		c.hookStart, c.hookEnd = start, end
		return
	}
	if start < c.hookStart {
		c.hookStart = start
	}
	if end > c.hookEnd {
		c.hookEnd = end
	}
}

// chainFetchHook appends h to the fetch-hook chain without touching
// the arming window.
func (c *Config) chainFetchHook(h func(m *Machine)) {
	if prev := c.FetchHook; prev != nil {
		c.FetchHook = func(m *Machine) { prev(m); h(m) }
	} else {
		c.FetchHook = h
	}
}

// chainStepHook appends h to the step-hook chain without touching the
// arming window.
func (c *Config) chainStepHook(h func(m *Machine, in *isa.Inst) StepAction) {
	if prev := c.StepHook; prev != nil {
		c.StepHook = func(m *Machine, in *isa.Inst) StepAction {
			a := prev(m, in)
			if b := h(m, in); b == ActSkip {
				return ActSkip
			}
			return a
		}
	} else {
		c.StepHook = h
	}
}

// AddFetchHook chains h after any already-installed fetch hook, so
// several fault models can be composed onto one run (the order-2
// multi-fault campaigns inject two independent faults this way). The
// hook declares no arming window, so it keeps the machine on the
// single-step path for the whole run; hooks that only act inside a
// bounded step range should use AddFetchHookWindow.
func (c *Config) AddFetchHook(h func(m *Machine)) {
	c.hookAll = true
	c.chainFetchHook(h)
}

// AddFetchHookWindow chains h like AddFetchHook and declares that h
// only acts during steps s with start <= s < end (pre-increment step
// counter, i.e. dynamic trace indices). Outside the union of all
// declared windows the machine may run predecoded micro-op blocks
// without invoking any hook — a window that is too narrow is a
// soundness bug, exactly like a too-early EffectHorizon.
func (c *Config) AddFetchHookWindow(h func(m *Machine), start, end uint64) {
	c.noteWindow(start, end)
	c.chainFetchHook(h)
}

// AddStepHook chains h after any already-installed step hook. Hooks
// compose permissively: if any hook in the chain asks to skip the
// instruction, it is skipped (later hooks still run, so their own
// step-indexed state machines observe every step). Like AddFetchHook,
// the hook declares no arming window and disables the micro-op fast
// path for the whole run.
func (c *Config) AddStepHook(h func(m *Machine, in *isa.Inst) StepAction) {
	c.hookAll = true
	c.chainStepHook(h)
}

// AddStepHookWindow chains h like AddStepHook and declares its arming
// window [start, end) in pre-increment step counts, with the same
// contract as AddFetchHookWindow.
func (c *Config) AddStepHookWindow(h func(m *Machine, in *isa.Inst) StepAction, start, end uint64) {
	c.noteWindow(start, end)
	c.chainStepHook(h)
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

	// pageLog maps each fetched code page to the step count at its
	// first fetch (see PageLog); lastPage short-circuits the common
	// same-page case. Nil unless Config.RecordPages was set.
	pageLog  map[uint64]uint64
	lastPage uint64

	fetchHook func(m *Machine)
	stepHook  func(m *Machine, in *isa.Inst) StepAction

	fetchBuf [decode.MaxInstLen]byte

	// Decoded-instruction cache, keyed by address and cleared when
	// Memory.CodeGeneration changes (pokes, bit flips, self-modifying
	// stores). Fault campaigns execute the same instructions millions
	// of times; decoding once per address is the difference between
	// minutes and seconds per campaign. Allocated lazily (machines fully
	// served by a shared Program never touch it) and kept, cleared,
	// across Release and the machine pool (see Release), so interpreting
	// machines do not allocate a fresh map each. DecodeCache detaches
	// the map it hands out, so a donated map is never cleared or pooled.
	icache    map[uint64]*isa.Inst
	icacheGen uint64

	// icacheBase is the decoded half of an optional shared Program
	// seeded from a Snapshot's golden run; it is consulted first and
	// dropped as soon as the code mutates. Never written (it is shared
	// across machines).
	icacheBase *Program

	// Micro-op fast path (uop.go). prog is an optional shared
	// predecoded program seeded from a Snapshot; once code mutates it
	// serves only uops no recorded edit touches, and poison lists the
	// ones an edit does touch (sorted uop indices, valid for poisonGen;
	// poisonBuf backs the usual short list). priv holds blocks this
	// machine translated itself (lazily, keyed by entry address, valid
	// for privGen). armStart/armEnd is the union of the config's hook
	// arming windows: while Steps is inside [armStart, armEnd) — or
	// when singleStep or trace recording is on — the machine
	// single-steps so hooks and the trace observe every instruction;
	// everywhere else RunUntil dispatches straight-line micro-op blocks.
	prog       *Program
	poison     []int32
	poisonBuf  [4]int32
	poisonGen  uint64
	priv       *privProg
	privGen    uint64
	armStart   uint64
	armEnd     uint64
	singleStep bool
}

// New builds a machine with the binary's sections mapped, a stack, and
// RIP at the entry point.
func New(bin *elf.Binary, cfg Config) *Machine {
	if cfg.StepLimit == 0 {
		cfg.StepLimit = DefaultStepLimit
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = DefaultStackSize
	}
	if cfg.StackTop == 0 {
		cfg.StackTop = DefaultStackTop
	}
	mem := memoryPool.Get().(*Memory)
	if mem.pages == nil {
		mem.pages = make(map[uint64]*page)
	}
	m := resumeMachine()
	m.Mem = mem
	m.Stdin = cfg.Stdin
	m.StepLimit = cfg.StepLimit
	m.recordTrace = cfg.RecordTrace
	m.fetchHook = cfg.FetchHook
	m.stepHook = cfg.StepHook
	m.singleStep = cfg.SingleStep
	m.armStart, m.armEnd = cfg.armedWindow()
	if cfg.RecordPages {
		m.pageLog = make(map[uint64]uint64, 8)
		m.lastPage = ^uint64(0)
	}
	for _, s := range bin.Sections {
		m.Mem.LoadSection(s)
	}
	m.Mem.Map(cfg.StackTop-cfg.StackSize, cfg.StackSize, elf.FlagRead|elf.FlagWrite)
	m.Regs[isa.RSP] = cfg.StackTop - 64 // a little headroom like a real loader
	m.RIP = bin.Entry
	m.Rflags = isa.FlagsFixed
	return m
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

// notePage records the code page containing addr in the page log, at
// the current step count, if it is not already logged.
func (m *Machine) notePage(addr uint64) {
	pa := addr &^ (pageSize - 1)
	if pa == m.lastPage {
		return
	}
	m.lastPage = pa
	if _, ok := m.pageLog[pa]; !ok {
		m.pageLog[pa] = m.Steps
	}
}

// PageLog returns the fetch footprint of a run recorded with
// Config.RecordPages: every code page the machine fetched instruction
// bytes from (including the page of a failed fetch), mapped to the step
// count at its first fetch. The fault-campaign cache uses the key set
// as the run's code footprint and the step values to slice the
// reference run's footprint at a snapshot boundary. Callers must not
// mutate the map.
func (m *Machine) PageLog() map[uint64]uint64 { return m.pageLog }

// HooksInertAt returns the step count from which the machine's hooks
// can no longer act — the end of the config's hook arming window, zero
// when no hook is installed — so a machine paused at or past it runs
// exactly like an unhooked one. ok is false when some hook declared no
// window and stays armed for the whole run.
func (m *Machine) HooksInertAt() (step uint64, ok bool) {
	if m.armEnd == ^uint64(0) {
		return 0, false
	}
	return m.armEnd, true
}

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
	if m.pageLog != nil {
		m.notePage(m.RIP)
	}
	gen := m.Mem.CodeGeneration()
	if m.icacheBase != nil && gen != m.icacheBase.gen {
		m.icacheBase = nil // seeded cache is stale once code mutates
	}
	var in *isa.Inst
	if m.icacheBase != nil {
		in = m.icacheBase.Lookup(m.RIP)
	}
	if in == nil {
		if m.icache == nil {
			m.icache = make(map[uint64]*isa.Inst, 64)
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
			// A decode-failure crash depends on every fetched byte and,
			// when the window was truncated, on the page that cut it
			// short — log them so the footprint invalidates if either
			// changes (the successful-decode path logs its tail page
			// below, after EncLen is known).
			if m.pageLog != nil {
				if n > 1 {
					m.notePage(m.RIP + uint64(n) - 1)
				}
				if n < len(m.fetchBuf) {
					m.notePage(m.RIP + uint64(n))
				}
			}
			return fmt.Errorf("at %#x: %w", m.RIP, err)
		}
		in = &dec
		m.icache[m.RIP] = in
	}
	if m.pageLog != nil && in.EncLen > 1 {
		// An instruction straddling a page boundary fetched from both
		// pages; log the tail page too.
		m.notePage(m.RIP + uint64(in.EncLen) - 1)
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
