package emu

import (
	"testing"

	"github.com/r2r/reinforce/internal/elf"
)

// loopText sums `mov rdi, 5` over two loop iterations and exits with
// the sum (10). Its program's Seq chains run mov rcx -> mov rdi -> add
// -> dec -> jne and mov rdi,rbx -> mov rax -> syscall; a trailing NOP
// pad gives room for edits no run executes.
var loopText = []byte{
	0x48, 0xC7, 0xC1, 0x02, 0x00, 0x00, 0x00, // 0x401000 mov rcx, 2
	0x48, 0xC7, 0xC7, 0x05, 0x00, 0x00, 0x00, // 0x401007 loop: mov rdi, 5 (imm at 0x40100A)
	0x48, 0x01, 0xFB, // 0x40100E add rbx, rdi
	0x48, 0xFF, 0xC9, // 0x401011 dec rcx
	0x75, 0xF1, // 0x401014 jne loop
	0x48, 0x89, 0xDF, // 0x401016 mov rdi, rbx
	0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00, // 0x401019 mov rax, 60
	0x0F, 0x05, // 0x401020 syscall
	0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, // 0x401022 pad
	0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90,
}

// immAddr is the low byte of loopText's `mov rdi, 5` immediate.
const immAddr = 0x40100A

// seededSnapshot returns the entry snapshot of a binary whose .text is
// code, seeded with its whole-image program.
func seededSnapshot(t *testing.T, code []byte) *Snapshot {
	t.Helper()
	bin := &elf.Binary{
		Entry: 0x401000,
		Sections: []*elf.Section{
			{Name: ".text", Addr: 0x401000, Data: append([]byte(nil), code...), Flags: elf.FlagRead | elf.FlagWrite | elf.FlagExec},
			{Name: ".data", Addr: 0x600000, Data: make([]byte, 4096), Flags: elf.FlagRead | elf.FlagWrite},
		},
	}
	base := New(bin, Config{Stdin: []byte("fuzz"), StepLimit: 4096}).Snapshot()
	base.SeedProgram(TranslateImage(base))
	return base
}

// overlayPair runs a fork of snap on the fast path and on the
// single-step interpreter, each edited by edit before it runs, and
// requires the two to agree on result, error text and final state
// digest. It returns the fast machine (not released) and its
// result.
func overlayPair(t *testing.T, snap *Snapshot, cfg Config, edit func(m *Machine)) (*Machine, Result) {
	t.Helper()
	run := func(single bool) (*Machine, Result, error) {
		c := cfg
		c.SingleStep = single
		m := snap.Resume(c)
		edit(m)
		res, err := m.Run()
		return m, res, err
	}
	mf, rf, ef := run(false)
	ms, rs, es := run(true)
	defer ms.Release()
	sameRun(t, "overlay", rf, ef, rs, es)
	if mf.StateDigest() != ms.StateDigest() {
		t.Fatal("final state digest divergence")
	}
	return mf, rf
}

// TestOverlaySeqChainFlip: a flip inside a fall-through chain. The
// program uop before the flipped one advances into it by index, so the
// runner must stop there and take the edited instruction from the
// private translation; executing the stale program uop would sum 5s.
func TestOverlaySeqChainFlip(t *testing.T) {
	snap := seededSnapshot(t, loopText)
	m, res := overlayPair(t, snap, Config{}, func(m *Machine) {
		if err := m.Mem.FlipBit(immAddr, 0); err != nil { // 5 -> 4
			t.Fatal(err)
		}
	})
	defer m.Release()
	if res.ExitCode != 8 {
		t.Errorf("exit = %d, want 8 (4+4 from the flipped immediate)", res.ExitCode)
	}
	if m.prog == nil || m.priv == nil {
		t.Errorf("overlay not used: prog=%v priv=%v", m.prog != nil, m.priv != nil)
	}
	if len(m.poison) != 1 {
		t.Errorf("poisoned uops = %v, want just the flipped mov", m.poison)
	}
}

// TestOverlayTransientFlip: a flip that lands at the first fetch of
// the loop body and is undone one fetch later (the transient bit-flip
// model's hook) — the first iteration adds 4, the second the restored
// 5. The restored bytes stay recorded, so the second iteration runs
// from the private translation too.
func TestOverlayTransientFlip(t *testing.T) {
	snap := seededSnapshot(t, loopText)
	var cfg Config
	cfg.AddFetchHookWindow(func(m *Machine) {
		if m.Steps == 1 || m.Steps == 2 {
			_ = m.Mem.FlipBit(immAddr, 0)
		}
	}, 1, 3)
	m, res := overlayPair(t, snap, cfg, func(*Machine) {})
	defer m.Release()
	if res.ExitCode != 9 {
		t.Errorf("exit = %d, want 9 (4, then the restored 5)", res.ExitCode)
	}
	if m.prog == nil {
		t.Error("program dropped after a transient flip")
	}
}

// TestOverlayEditOverflow: four disjoint edits still leave the program
// serving; a fifth overflows the edit record and the program stops
// serving the machine, which then runs wholly on its private
// translation — identically either way.
func TestOverlayEditOverflow(t *testing.T) {
	snap := seededSnapshot(t, loopText)
	for _, edits := range []int{4, 5} {
		m, res := overlayPair(t, snap, Config{}, func(m *Machine) {
			_ = m.Mem.FlipBit(immAddr, 0)
			for i := 1; i < edits; i++ { // disjoint pad bytes
				_ = m.Mem.FlipBit(0x401022+2*uint64(i), 0)
			}
		})
		if res.ExitCode != 8 {
			t.Errorf("%d edits: exit = %d, want 8", edits, res.ExitCode)
		}
		if serving := m.prog != nil; serving != (edits <= maxEdits) {
			t.Errorf("%d edits: program serving = %v", edits, serving)
		}
		m.Release()
	}
}

// TestEditLog: ranges that overlap or touch merge, a disjoint range
// beyond the capacity overflows the record, and an overflowed record
// stays overflowed.
func TestEditLog(t *testing.T) {
	var l editLog
	l.add(10, 11)
	l.add(11, 12) // touches: merges
	l.add(9, 10)  // touches: merges
	if l.n != 1 || l.r[0].lo != 9 || l.r[0].hi != 12 {
		t.Fatalf("merge: %+v", l)
	}
	for i := uint64(1); i < maxEdits; i++ {
		l.add(100*i, 100*i+1)
	}
	if l.full() {
		t.Fatal("overflowed at capacity")
	}
	l.add(10, 12) // inside an existing range: no new slot
	if l.full() {
		t.Fatal("a covered range overflowed the record")
	}
	l.add(5000, 5001)
	if !l.full() {
		t.Fatal("no overflow past capacity")
	}
	l.add(10, 11)
	if !l.full() {
		t.Fatal("overflow did not stick")
	}
}

// TestSeedProgramAfterFlip: a snapshot keeps the program of the
// machine it freezes while the program fits its code — unmutated, or
// changed only at recorded ranges (the order-2 tree's first-fault
// snapshots after a bit flip) — so a snapshot of a machine resumed
// from such a snapshot carries it on; once the edit record overflowed
// it is gone, and SeedProgram refuses it. TranslateImage builds no
// program from a snapshot whose code changed.
func TestSeedProgramAfterFlip(t *testing.T) {
	base := seededSnapshot(t, loopText)
	prog := base.prog
	if prog == nil {
		t.Fatal("image program missing")
	}
	// fork resumes a machine from `from`, flips a bit in each of `edits`
	// disjoint pad bytes no run executes, runs it to step `steps` and
	// snapshots it.
	fork := func(from *Snapshot, edits int, steps uint64) *Snapshot {
		m := from.Resume(Config{})
		for i := 0; i < edits; i++ {
			_ = m.Mem.FlipBit(0x401022+2*uint64(i), 0)
		}
		if _, done, err := m.RunUntil(steps); done {
			t.Fatalf("run ended before step %d: %v", steps, err)
		}
		return m.Snapshot()
	}
	for _, edits := range []int{0, 1} {
		s := fork(base, edits, 2)
		if s.prog != prog {
			t.Fatalf("%d flips: snapshot dropped the program", edits)
		}
		if again := fork(s, 0, 4); again.prog != prog {
			t.Fatalf("%d flips: snapshot of a resumed snapshot's machine dropped the program", edits)
		}
		m := s.Resume(Config{SingleStep: true})
		if m.prog != prog {
			t.Errorf("%d flips: resumed machine dropped the program", edits)
		}
		if res, err := m.Run(); err != nil || res.ExitCode != 10 {
			t.Errorf("%d flips: run = %+v, %v; want exit 10", edits, res, err)
		}
		m.Release()
	}
	if TranslateImage(fork(base, 1, 0)) != nil {
		t.Error("TranslateImage built a program from flipped code")
	}
	s := fork(base, maxEdits+1, 2)
	if s.prog != nil {
		t.Error("overflowed snapshot kept the program")
	}
	s.SeedProgram(prog)
	if s.prog != nil {
		t.Error("overflowed snapshot accepted the program")
	}
}

// imageSnapshot returns the entry snapshot of a binary with one
// executable section per code blob, the first at 0x401000 and each
// next one gap bytes past the end of the one before, seeded with its
// whole-image program.
func imageSnapshot(t *testing.T, gap uint64, code ...[]byte) *Snapshot {
	t.Helper()
	bin := &elf.Binary{Entry: 0x401000}
	a := uint64(0x401000)
	for _, c := range code {
		bin.Sections = append(bin.Sections, &elf.Section{Name: ".text", Addr: a, Data: c, Flags: elf.FlagRead | elf.FlagExec})
		a += uint64(len(c)) + gap
	}
	s := New(bin, Config{}).Snapshot()
	s.SeedProgram(TranslateImage(s))
	return s
}

// TestTranslateImage: the whole-image program decodes the linear sweep
// of the text and leaves out what does not decode from its fetch
// window. A run that stays on the sweep translates nothing privately;
// a branch into the middle of a swept instruction is served by private
// translation. The program's instruction slice is sized for the
// executable bytes. An executable span beyond maxPrivSpan gets no
// program.
func TestTranslateImage(t *testing.T) {
	run := func(s *Snapshot, priv bool) {
		t.Helper()
		m := s.Resume(Config{})
		defer m.Release()
		if res, err := m.Run(); err != nil || res.ExitCode != 0 {
			t.Fatalf("run = %+v, %v; want exit 0", res, err)
		}
		if got := m.priv != nil; got != priv {
			t.Errorf("private translation = %v, want %v", got, priv)
		}
	}
	s := imageSnapshot(t, 0, []byte{
		0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00, // 0x401000 mov rax, 60
		0x48, 0x31, 0xFF, // 0x401007 xor rdi, rdi
		0x0F, 0x05, // 0x40100A syscall
	})
	if s.prog == nil {
		t.Fatal("no image program")
	}
	run(s, false)

	s = imageSnapshot(t, 0, []byte{
		0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00, // 0x401000 mov rax, 60
		0xEB, 0x01, // 0x401007 jmp 0x40100A
		0xB8, 0x48, 0x31, 0xFF, 0x90, // 0x401009 mov eax, imm32
		0x0F, 0x05, // 0x40100E syscall
	})
	for _, a := range []uint64{0x401000, 0x401007, 0x401009, 0x40100E} {
		if s.prog.Lookup(a) == nil {
			t.Errorf("no instruction at %#x", a)
		}
	}
	if s.prog.Lookup(0x40100A) != nil {
		t.Error("branch target inside the swept mov was decoded")
	}
	run(s, true)

	// The page after the text is unmapped: past the nop padding, inc
	// rdi still decodes from its 7-byte window, the 4 bytes of mov rax,
	// imm32 do not.
	page := make([]byte, pageSize)
	for i := range page {
		page[i] = 0x90
	}
	copy(page[pageSize-7:], []byte{0x48, 0xFF, 0xC7, 0x48, 0xC7, 0xC0, 0x3C})
	s = imageSnapshot(t, 0, page)
	if s.prog.Lookup(0x401FF9) == nil || s.prog.Lookup(0x401FFC) != nil {
		t.Errorf("cut-short windows: inc %v, truncated mov %v; want decoded, absent",
			s.prog.Lookup(0x401FF9), s.prog.Lookup(0x401FFC))
	}

	// Two sections 900 KiB apart: the instruction slice is sized for
	// the executable bytes, not for the span between them.
	s = imageSnapshot(t, 900<<10, []byte{0x90, 0x90}, []byte{0x90, 0x90})
	if n := len(s.prog.insts); n != 4 || cap(s.prog.insts) > 16 {
		t.Errorf("sparse image: %d instructions in a slice of %d", n, cap(s.prog.insts))
	}

	s = imageSnapshot(t, maxPrivSpan, []byte{0x90}, []byte{0x90})
	if s.prog != nil {
		t.Error("image program built over a span beyond maxPrivSpan")
	}
}
