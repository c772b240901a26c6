package emu

import (
	"maps"
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
// code, seeded with the program of its own golden run.
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
	golden := base.Resume(Config{StepLimit: 4096, SingleStep: true})
	golden.Run()
	cache, gen := golden.DecodeCache()
	base.SeedProgram(TranslateProgram(cache, gen))
	return base
}

// overlayPair runs a fork of snap on the fast path and on the
// single-step interpreter, each edited by edit before it runs, and
// requires the two to agree on result, error text, page log and final
// state digest. It returns the fast machine (not released) and its
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
	if !maps.Equal(mf.PageLog(), ms.PageLog()) {
		t.Fatalf("page log divergence: fast=%v slow=%v", mf.PageLog(), ms.PageLog())
	}
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
	m, res := overlayPair(t, snap, Config{RecordPages: true}, func(m *Machine) {
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

// TestSeedProgramAfterFlip: a snapshot whose code differs from a
// generation-zero program only at recorded ranges accepts the program
// (the order-2 tree's first-fault snapshots after a bit flip); one
// whose edit record overflowed, or a program from mutated code, does
// not.
func TestSeedProgramAfterFlip(t *testing.T) {
	base := seededSnapshot(t, loopText)
	prog := base.prog
	if prog == nil || prog.gen != 0 {
		t.Fatal("golden program missing")
	}
	fork := func(edits int) *Snapshot {
		m := base.Resume(Config{})
		for i := 0; i < edits; i++ {
			_ = m.Mem.FlipBit(0x401022+2*uint64(i), 0)
		}
		return m.Snapshot()
	}
	s := fork(1)
	s.SeedProgram(prog)
	if s.prog != prog {
		t.Fatal("flipped snapshot refused the generation-zero program")
	}
	m := s.Resume(Config{SingleStep: true})
	if m.prog != prog {
		t.Error("resumed machine dropped the program")
	}
	if m.Step(); m.icacheBase != nil {
		t.Error("decode cache kept the program across a code mutation")
	}
	s = fork(maxEdits + 1)
	s.SeedProgram(prog)
	if s.prog != nil {
		t.Error("overflowed snapshot accepted the program")
	}
	stale := *prog
	stale.gen = 1
	s = fork(2)
	s.SeedProgram(&stale)
	if s.prog != nil {
		t.Error("snapshot accepted a program built from mutated code")
	}
}
