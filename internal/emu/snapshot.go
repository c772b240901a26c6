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

	// Optional code artifact (TranslateImage): the binary's load-time
	// instructions plus their micro-op stream, shared read-only by all
	// resumed machines. They read instructions from it while their code
	// is unmutated, and serve micro-ops from it for as long as their
	// edit record holds (see Machine.progAt).
	prog *Program
}

// Snapshot freezes the machine's current state. The machine remains
// usable afterwards (its next write to any frozen page clones it).
// Must not be called concurrently with resumed machines running; the
// intended sequence is: run + snapshot single-threaded, then fan out.
// The snapshot keeps the machine's program while the program still fits
// its code, so snapshots along a run, or of a faulted fork, serve their
// resumes like the entry snapshot served the machine.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
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
	s.SeedProgram(m.prog)
	return s
}

// Steps returns the number of instructions executed before the snapshot
// was taken.
func (s *Snapshot) Steps() uint64 { return s.steps }

// SeedProgram attaches a shared code artifact (TranslateImage of an
// entry snapshot of the same binary) so resumed machines neither decode
// the instructions it holds nor translate them into micro-op blocks.
// Ignored unless the program fits the snapshot's code: every change
// since load is recorded (a bit-flipped first-fault state, a
// self-modifying reference run), so the bytes outside the recorded
// ranges are still the load-time bytes the program decoded. Callers
// seed entry snapshots; Machine.Snapshot hands the program on.
func (s *Snapshot) SeedProgram(p *Program) {
	if p != nil && !s.mem.edits.full() {
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
	m.prog = s.prog
	m.configure(cfg)
	return m
}
