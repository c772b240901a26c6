// Allocation pools for the fault-campaign fan-out. A campaign resumes
// tens of thousands of short-lived machines from snapshots; each one
// used to allocate a Machine, a Memory, and every page it dirtied,
// making the garbage collector a visible fraction of campaign time.
// The pools recycle all three through Machine.Release, which the fault
// executors call once a fork's Result has been extracted.
package emu

import "sync"

// pagePool recycles 4 KiB page frames. clonePage and the materializing
// paths draw from it; Release returns every private (non-cow) overlay
// page.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// materializePage returns a zeroed page frame with the given
// permissions, reusing a pooled frame when one is available.
func materializePage(perm uint32) *page {
	p := pagePool.Get().(*page)
	*p = page{perm: perm}
	return p
}

// machinePool and memoryPool recycle the fixed-size shells around the
// pages. Snapshot.Resume draws from them.
var (
	machinePool = sync.Pool{New: func() any { return new(Machine) }}
	memoryPool  = sync.Pool{New: func() any { return new(Memory) }}
)

// privPool recycles machine-private micro-op translations — the
// index, uop stream, and instruction slab keep their capacity across
// machines, so a recycled translation usually re-translates without
// allocating.
var privPool = sync.Pool{New: func() any { return new(privProg) }}

// resumeMachine returns a pooled, zeroed Machine shell.
func resumeMachine() *Machine {
	m := machinePool.Get().(*Machine)
	*m = Machine{}
	return m
}

// Release returns the machine, its address space, and all private
// overlay pages to the allocation pools. The machine must not be used
// afterwards. Calling Release is optional (the garbage collector
// remains correct without it) and is a no-op for machines whose memory
// donated pages to a Snapshot — frozen page tables are shared with
// immutable images and resumed siblings, so they must stay live.
//
// Safe to call after the Result has been extracted: Result.Stdout and
// Stderr are the machine's own heap slices (never pooled), and
// copy-on-write pages in the overlay are skipped (they belong to the
// snapshot that marked them).
func (m *Machine) Release() {
	if m == nil || m.Mem == nil || m.Mem.frozen {
		return
	}
	if p := m.priv; p != nil {
		m.priv = nil
		privPool.Put(p)
	}
	mem := m.Mem
	//lint:allow maprange (pool release: which frame the pool hands out next never reaches machine state)
	for pa, p := range mem.pages {
		delete(mem.pages, pa)
		if p.cow {
			// Shared with a frozen image; not ours to recycle.
			continue
		}
		pagePool.Put(p)
	}
	pages := mem.pages // keep the cleared map's buckets
	*mem = Memory{pages: pages}
	memoryPool.Put(mem)
	*m = Machine{}
	machinePool.Put(m)
}
