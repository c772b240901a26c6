package emu

import (
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/isa"
)

// digestProg touches registers, memory, and stdout, so every digested
// state component is exercised.
const digestProg = `
.text
_start:
	mov rbx, 7
	mov [rip+cell], rbx
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, 3
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
.data
cell: .quad 0
msg: .ascii "ok\n"
`

func digestMachine(t *testing.T) *Machine {
	t.Helper()
	bin, err := asm.Assemble(digestProg, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return New(bin, Config{})
}

// TestStateDigestDeterministic: two machines stepped to the same point
// of the same program digest identically, and every intermediate step
// digests differently from the last (the program never revisits a
// state).
func TestStateDigestDeterministic(t *testing.T) {
	a, b := digestMachine(t), digestMachine(t)
	seen := map[[32]byte]uint64{}
	for !a.Exited {
		da, db := a.StateDigest(), b.StateDigest()
		if da != db {
			t.Fatalf("step %d: identical machines digest differently", a.Steps)
		}
		if prev, dup := seen[da]; dup {
			t.Fatalf("steps %d and %d share a digest", prev, a.Steps)
		}
		seen[da] = a.Steps
		if err := a.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
		if err := b.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
}

// TestStateDigestZeroPageCanonical: materializing a region page without
// changing its (zero) content must not change the digest — resumed
// forks materialize stack pages lazily, so the digest has to be
// canonical over that difference.
func TestStateDigestZeroPageCanonical(t *testing.T) {
	a, b := digestMachine(t), digestMachine(t)
	before := a.StateDigest()
	// Touch an untouched stack page on one machine: a zero write
	// materializes the page without changing visible memory.
	sp := a.Regs[isa.RSP]
	target := (sp - 4*pageSize) &^ uint64(pageSize-1)
	if err := a.Mem.Write(target, []byte{0}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := a.StateDigest(); got != before {
		t.Fatalf("materializing an all-zero page changed the digest")
	}
	if got := a.StateDigest(); got != b.StateDigest() {
		t.Fatalf("machines diverged after zero-write")
	}
	// A real write must change it.
	if err := a.Mem.Write(target, []byte{1}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := a.StateDigest(); got == before {
		t.Fatalf("non-zero write did not change the digest")
	}
}

// TestStateDigestCoversStep: the step counter is state — the
// continuation memo and the pair pruner key on it, because the step
// limit makes equal machines at different steps different futures.
func TestStateDigestCoversStep(t *testing.T) {
	m := digestMachine(t)
	before := m.StateDigest()
	m.Steps++
	if m.StateDigest() == before {
		t.Fatal("the step counter does not reach the digest")
	}
}

// TestStateDigestSnapshotFork: a machine resumed from a snapshot
// digests identically to its donor at the snapshot point, including
// pages shared copy-on-write.
func TestStateDigestSnapshotFork(t *testing.T) {
	m := digestMachine(t)
	for i := 0; i < 3; i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	want := m.StateDigest()
	fork := m.Snapshot().Resume(Config{})
	if got := fork.StateDigest(); got != want {
		t.Fatalf("fork digest differs from donor at the snapshot point")
	}
	// Divergence after the fork is visible in both directions.
	if err := fork.Step(); err != nil {
		t.Fatalf("fork step: %v", err)
	}
	if fork.StateDigest() == want {
		t.Fatalf("fork digest unchanged after stepping")
	}
	if m.StateDigest() != want {
		t.Fatalf("donor digest changed by forking")
	}
}

// TestStateDigestCowCacheMatchesClone: a frozen page digested through
// its cached content digest and the same bytes in a private clone
// contribute identically, and a real write to the clone shows.
func TestStateDigestCowCacheMatchesClone(t *testing.T) {
	m := digestMachine(t)
	for i := 0; i < 2; i++ { // past the store to cell
		if err := m.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	snap := m.Snapshot()
	fork := snap.Resume(Config{})
	want := fork.StateDigest() // caches every frozen page's digest
	cell := uint64(0)
	for a, p := range fork.Mem.base {
		if !p.cow || p.digest.Load() == nil {
			t.Fatalf("frozen page %#x has no cached digest after StateDigest", a)
		}
		if p.perm&elf.FlagWrite != 0 {
			cell = a // the .data page holding cell and msg
		}
	}
	if cell == 0 {
		t.Fatal("no writable page in the snapshot")
	}
	// Rewrite a byte with its own value: the page is now a private
	// clone with unchanged content.
	b, err := fork.Mem.Peek(cell)
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Mem.Write(cell, []byte{b}); err != nil {
		t.Fatal(err)
	}
	clone := fork.Mem.pages[cell]
	if clone == nil || clone.cow || clone.digest.Load() != nil {
		t.Fatalf("write did not leave an uncached private clone: %+v", clone)
	}
	if got := fork.StateDigest(); got != want {
		t.Fatal("private clone with unchanged content digests differently from its frozen page")
	}
	if err := fork.Mem.Write(cell, []byte{b ^ 0x80}); err != nil {
		t.Fatal(err)
	}
	if got := fork.StateDigest(); got == want {
		t.Fatal("write to the private clone did not change the digest")
	}
	if err := fork.Mem.Write(cell, []byte{b}); err != nil {
		t.Fatal(err)
	}
	if got := fork.StateDigest(); got != want {
		t.Fatal("restoring the clone's byte did not restore the digest")
	}
}

// TestRecycledPageCarriesNoDigest: frames returned to the pool by
// Release come back from clonePage and materializePage without a
// content digest, so a frame later frozen by a snapshot is hashed from
// its own bytes, never from a previous life's cached digest.
func TestRecycledPageCarriesNoDigest(t *testing.T) {
	m := digestMachine(t)
	snap := m.Snapshot()
	stale := &pageSum{d: [32]byte{1}}
	for i := 0; i < 64; i++ {
		fork := snap.Resume(Config{})
		for a, p := range fork.Mem.base {
			q := fork.Mem.clonePage(a, p)
			if q.digest.Load() != nil {
				t.Fatalf("clonePage returned a frame carrying a digest")
			}
			q.digest.Store(stale) // plant a stale digest before recycling
		}
		if p := materializePage(0); p.digest.Load() != nil {
			t.Fatalf("materializePage returned a frame carrying a digest")
		}
		fork.Release()
	}
	// A recycled frame frozen by a later snapshot digests from its bytes.
	fork := snap.Resume(Config{})
	if err := fork.Mem.Write(fork.Regs[isa.RSP]-8, []byte{0x5a}); err != nil {
		t.Fatal(err)
	}
	want := fork.StateDigest()
	if got := fork.Snapshot().Resume(Config{}).StateDigest(); got != want {
		t.Fatal("refrozen recycled frames digest differently from their content")
	}
}
