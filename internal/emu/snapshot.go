package emu

import (
	"github.com/r2r/reinforce/internal/isa"
)

// memImage is a frozen view of an address space: a page table whose
// pages are shared copy-on-write with the donor machine and with every
// machine resumed from the snapshot.
type memImage struct {
	pages   map[uint64]*page
	regions []region
	codeGen uint64
	edits   editLog
}

// freeze marks every visible page copy-on-write and returns an
// immutable image holding the union of the base and private page
// tables. The donor memory keeps working: its next write to a frozen
// page clones it privately first.
func (m *Memory) freeze() memImage {
	pages := make(map[uint64]*page, len(m.pages)+len(m.base))
	for a, p := range m.base {
		pages[a] = p // already cow from the freeze that shared them
	}
	for a, p := range m.pages {
		p.cow = true
		pages[a] = p
	}
	// The donor's pages now back an immutable image, so the donor must
	// never be recycled into the allocation pools (see Release).
	m.frozen = true
	return memImage{pages: pages, regions: m.regions, codeGen: m.codeGen, edits: m.edits}
}

// resumeMemory builds a private address space layered over a frozen
// image: no pages are copied up front, reads fall through to the
// image, and writes clone single pages on demand. The shell comes from
// the allocation pool; Release returns it.
func resumeMemory(img memImage) *Memory {
	mem := memoryPool.Get().(*Memory)
	pages := mem.pages // cleared by Release; keep the buckets
	*mem = Memory{pages: pages, base: img.pages, regions: img.regions, codeGen: img.codeGen, edits: img.edits}
	return mem
}

// Snapshot is an immutable machine image taken at an instruction
// boundary. Any number of machines can be resumed from it concurrently;
// memory pages are shared copy-on-write, so a resume costs one small
// map copy instead of re-loading the binary and re-zeroing the stack.
//
// Fault campaigns are the intended user: the golden run is executed
// once, snapshots are taken along the way, and each of the thousands of
// injection runs forks from the nearest snapshot instead of replaying
// the whole prefix from _start (the state-reuse trick that makes
// exhaustive fault simulation tractable, cf. ARMORY).
type Snapshot struct {
	regs   [isa.NumRegs]uint64
	rip    uint64
	rflags uint64
	steps  uint64

	stdin  []byte
	inPos  int
	stdout []byte // capacity-clamped: resumed appends reallocate
	stderr []byte

	mem memImage

	// Optional code artifact (TranslateProgram or TranslateImage):
	// decoded instructions plus their micro-op stream, shared read-only
	// by all resumed machines. They serve the decode cache from it while their
	// code generation still matches, and the micro-op fast path for as
	// long as Program.fits.
	prog *Program
}

// Snapshot freezes the machine's current state. The machine remains
// usable afterwards (its next write to any frozen page clones it).
// Must not be called concurrently with resumed machines running; the
// intended sequence is: run + snapshot single-threaded, then fan out.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		regs:   m.Regs,
		rip:    m.RIP,
		rflags: m.Rflags,
		steps:  m.Steps,
		stdin:  m.Stdin,
		inPos:  m.inPos,
		stdout: m.Stdout[:len(m.Stdout):len(m.Stdout)],
		stderr: m.Stderr[:len(m.Stderr):len(m.Stderr)],
		mem:    m.Mem.freeze(),
	}
}

// Steps returns the number of instructions executed before the snapshot
// was taken.
func (s *Snapshot) Steps() uint64 { return s.steps }

// SeedProgram attaches a shared code artifact (built with
// TranslateProgram from a golden run, or TranslateImage) so resumed
// machines neither re-decode the instructions it holds nor re-translate
// them into micro-op blocks. Ignored unless the program fits the snapshot's code:
// same code generation, or a generation-zero program and a snapshot
// whose code changed only at recorded ranges (a bit-flipped first-fault
// state, see Program.fits).
func (s *Snapshot) SeedProgram(p *Program) {
	if p != nil && p.fits(s.mem.codeGen, &s.mem.edits) {
		s.prog = p
	}
}

// Resume forks a fresh machine from the snapshot. cfg supplies the run
// controls (StepLimit, hooks, RecordTrace); cfg.Stdin, when non-nil,
// replaces the snapshot's input stream (only meaningful for snapshots
// taken before the first read). StepLimit counts total steps including
// the snapshot's prefix, so absolute step budgets behave identically to
// a from-scratch run.
func (s *Snapshot) Resume(cfg Config) *Machine {
	if cfg.StepLimit == 0 {
		cfg.StepLimit = DefaultStepLimit
	}
	m := resumeMachine()
	m.Regs = s.regs
	m.RIP = s.rip
	m.Rflags = s.rflags
	m.Steps = s.steps
	m.Mem = resumeMemory(s.mem)
	m.Stdin = s.stdin
	m.inPos = s.inPos
	m.Stdout = s.stdout
	m.Stderr = s.stderr
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
	if cfg.Stdin != nil {
		m.Stdin = cfg.Stdin
	}
	// Step drops icacheBase at the first code generation the program
	// was not built for; the micro-op fast path keeps prog while it fits.
	m.icacheBase, m.prog = s.prog, s.prog
	return m
}

// DecodeCache hands out the machine's decoded-instruction cache and the
// code generation it is valid for, so a finished golden run can donate
// its decode work to a Snapshot (via TranslateProgram). The map is
// detached from the machine: the machine decodes into a new map if it
// keeps interpreting, and neither a code change nor Release ever clears
// or pools the map handed out. The caller must not mutate the map or
// the instructions it points to.
func (m *Machine) DecodeCache() (map[uint64]*isa.Inst, uint64) {
	c := m.icache
	m.icache = nil
	return c, m.icacheGen
}
