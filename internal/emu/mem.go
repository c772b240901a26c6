package emu

import (
	"fmt"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/elf"
)

const pageSize = 0x1000

// PageSize is the granularity of the paged address space, exported for
// footprint consumers: Machine.PageLog records fetched pages at this
// granularity, and the campaign cache compares patched-byte ranges
// against footprints page by page.
const PageSize = pageSize

// AccessKind labels a memory access for fault reporting.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

// String names the access kind for fault messages.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "execute"
	}
	return "?"
}

// MemFault reports an illegal memory access: the emulator equivalent of
// a segmentation fault.
type MemFault struct {
	Addr uint64
	Kind AccessKind
}

// Error implements the error interface.
func (e *MemFault) Error() string {
	return fmt.Sprintf("emu: memory fault: %s at %#x", e.Kind, e.Addr)
}

type page struct {
	data [pageSize]byte
	perm uint32

	// cow marks the page as shared with a frozen Snapshot: it must be
	// cloned into a private copy before the first write. The flag is only
	// ever set while freezing (single-threaded); machines resumed from a
	// snapshot read it concurrently and clone into their own page tables,
	// so the frozen page itself is never mutated.
	cow bool

	// digest caches the content digest of a cow page (see page.sum),
	// published atomically because frozen pages are shared by the
	// workers' machines. Always nil on private pages: every frame drawn
	// from pagePool (clonePage, materializePage) starts without one.
	digest atomic.Pointer[pageSum]
}

// region is a mapped address range whose pages materialize lazily on
// first touch. Fault campaigns create thousands of short-lived machines;
// allocating the (mostly untouched) stack eagerly would dominate their
// cost.
type region struct {
	addr, size uint64
	perm       uint32
}

// tlbEntry caches one resolved page lookup.
type tlbEntry struct {
	pa uint64
	p  *page
}

// tlbSize is the number of direct-mapped TLB slots. Hot loops touch a
// handful of pages (code, stack, data), so a small table hits almost
// always.
const tlbSize = 16

// Memory is a sparse paged address space with per-page permissions.
// A resumed memory (see Snapshot) layers a small private page table
// over a frozen base: reads fall through to the base, writes clone the
// touched page into the private table first.
type Memory struct {
	pages   map[uint64]*page // private overlay; may be nil until first use
	base    map[uint64]*page // frozen snapshot pages, shared read-only; may be nil
	regions []region

	// tlb memoizes lookupPage: a direct-mapped cache over the two page
	// maps, holding only non-nil results. Every site that changes the
	// visible mapping for an address inserts into m.pages and must go
	// through setPage, which keeps the affected slot coherent; freezing
	// and mapping never remap an address, so they need no flush.
	tlb [tlbSize]tlbEntry

	// codeGen increments whenever executable bytes may have changed
	// (Poke/FlipBit, or a store into an executable page); the machine's
	// decoded-instruction cache keys off it. edits records the byte
	// range of every such change since generation zero, so a
	// generation-zero Program can keep serving the bytes no change
	// touched (see Machine.progAt). Both only ever change together,
	// through codeEdit.
	codeGen uint64
	edits   editLog

	// frozen marks a memory that donated its pages to a Snapshot: its
	// page objects are shared with an immutable image, so the memory
	// must never be recycled into the allocation pools (see pool.go).
	frozen bool
}

// maxEdits is the capacity of an edit record. A bit-flip fault edits
// one byte (a transient flip edits it twice); a run that changes code
// in more places than this loses the shared Program altogether.
const maxEdits = 4

// editLog records the executable byte ranges code mutations changed.
// It is fixed-size, so frozen images and resumed memories copy it by
// value. Ranges that overlap or touch merge; a range that fits nowhere
// overflows the record for good.
type editLog struct {
	n int // ranges in use; maxEdits+1 once overflowed
	r [maxEdits]struct{ lo, hi uint64 }
}

// add records the changed range [lo, hi).
func (l *editLog) add(lo, hi uint64) {
	if l.full() {
		return
	}
	for i := range l.r[:l.n] {
		if r := &l.r[i]; lo <= r.hi && hi >= r.lo {
			r.lo, r.hi = min(r.lo, lo), max(r.hi, hi)
			return
		}
	}
	if l.n == maxEdits {
		l.n = maxEdits + 1
		return
	}
	l.r[l.n].lo, l.r[l.n].hi = lo, hi
	l.n++
}

// full reports whether the record overflowed.
func (l *editLog) full() bool { return l.n > maxEdits }

// codeEdit notes that the executable bytes [lo, hi) may have changed:
// a new code generation, and the range in the edit record.
func (m *Memory) codeEdit(lo, hi uint64) {
	m.codeGen++
	m.edits.add(lo, hi)
}

// setPage installs pa -> p in the private overlay and keeps the TLB
// coherent. Every insert into m.pages must go through it.
func (m *Memory) setPage(pa uint64, p *page) {
	if m.pages == nil {
		m.pages = make(map[uint64]*page, 8)
	}
	m.pages[pa] = p
	m.tlb[(pa>>12)&(tlbSize-1)] = tlbEntry{pa: pa, p: p}
}

// clonePage replaces a copy-on-write page with a private mutable copy
// in this address space's overlay and returns the copy. Every write
// path must go through it before mutating a shared page.
func (m *Memory) clonePage(pa uint64, p *page) *page {
	q := pagePool.Get().(*page)
	q.data = p.data
	q.perm = p.perm
	q.cow = false
	q.digest.Store(nil)
	m.setPage(pa, q)
	return q
}

// lookupPage returns the visible page containing pa (private overlay
// first, then the frozen base), without materializing anything.
func (m *Memory) lookupPage(pa uint64) *page {
	if e := &m.tlb[(pa>>12)&(tlbSize-1)]; e.pa == pa && e.p != nil {
		return e.p
	}
	if m.pages != nil {
		if p, ok := m.pages[pa]; ok {
			m.tlb[(pa>>12)&(tlbSize-1)] = tlbEntry{pa: pa, p: p}
			return p
		}
	}
	if m.base != nil {
		if p, ok := m.base[pa]; ok {
			m.tlb[(pa>>12)&(tlbSize-1)] = tlbEntry{pa: pa, p: p}
			return p
		}
	}
	return nil
}

// execSpan returns the address range covered by executable regions
// (the span a machine-private micro-op translation indexes, see
// uop.go).
func (m *Memory) execSpan() (lo, hi uint64) {
	first := true
	for _, r := range m.regions {
		if r.perm&elf.FlagExec == 0 {
			continue
		}
		if first || r.addr < lo {
			lo = r.addr
		}
		if first || r.addr+r.size > hi {
			hi = r.addr + r.size
		}
		first = false
	}
	return lo, hi
}

// CodeGeneration returns the current code-mutation epoch.
func (m *Memory) CodeGeneration() uint64 { return m.codeGen }

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Map makes [addr, addr+size) accessible with the given permissions,
// zero-filled. Overlapping maps widen permissions.
func (m *Memory) Map(addr, size uint64, perm uint32) {
	m.regions = append(m.regions, region{addr: addr, size: size, perm: perm})
	// Already-materialized pages in range get their perms widened
	// (cloning shared pages first — permissions are per-machine state).
	lo := addr &^ (pageSize - 1)
	hi := addr + size
	if spanPages := (hi - lo + pageSize - 1) / pageSize; spanPages <= uint64(len(m.pages)+len(m.base)) {
		for a := lo; a < hi; a += pageSize {
			if p := m.lookupPage(a); p != nil {
				if p.cow {
					p = m.clonePage(a, p)
				}
				p.perm |= perm
			}
		}
		return
	}
	// Large mapping (a fresh stack), few materialized pages: visiting
	// the page tables beats probing every page of the range.
	//lint:allow maprange (permission OR per page: commutative, and a clone visited twice ORs again idempotently)
	for a, p := range m.pages {
		if a >= lo && a < hi {
			if p.cow { // a frozen donor's overlay pages are shared
				p = m.clonePage(a, p)
			}
			p.perm |= perm
		}
	}
	//lint:allow maprange (per-page clone plus permission OR: each page's result is independent of visit order)
	for a, p := range m.base {
		if a >= lo && a < hi {
			if _, shadowed := m.pages[a]; !shadowed {
				m.clonePage(a, p).perm |= perm
			}
		}
	}
}

// LoadSection maps and fills a binary section.
func (m *Memory) LoadSection(s *elf.Section) {
	m.Map(s.Addr, s.Size(), s.Flags)
	m.writeRaw(s.Addr, s.Data)
}

// regionPerm returns the union of region permissions covering the page
// containing addr, and whether any region covers it.
func (m *Memory) regionPerm(pageAddr uint64) (uint32, bool) {
	var perm uint32
	found := false
	for _, r := range m.regions {
		if pageAddr+pageSize > r.addr && pageAddr < r.addr+r.size {
			perm |= r.perm
			found = true
		}
	}
	return perm, found
}

// page returns the materialized page containing addr, creating it from
// a covering region if needed. Returns nil for unmapped addresses.
func (m *Memory) page(addr uint64) *page {
	pa := addr &^ (pageSize - 1)
	if p := m.lookupPage(pa); p != nil {
		return p
	}
	perm, ok := m.regionPerm(pa)
	if !ok {
		return nil
	}
	p := materializePage(perm)
	m.setPage(pa, p)
	return p
}

// writablePage returns a page safe to mutate: copy-on-write pages are
// cloned into this address space first. Returns nil for unmapped
// addresses.
func (m *Memory) writablePage(addr uint64) *page {
	pa := addr &^ (pageSize - 1)
	p := m.lookupPage(pa)
	switch {
	case p == nil:
		perm, ok := m.regionPerm(pa)
		if !ok {
			return nil
		}
		p = materializePage(perm)
		m.setPage(pa, p)
	case p.cow:
		p = m.clonePage(pa, p)
	}
	return p
}

func (m *Memory) writeRaw(addr uint64, data []byte) {
	for i := 0; i < len(data); {
		a := addr + uint64(i)
		p := m.writablePage(a)
		n := copy(p.data[a&(pageSize-1):], data[i:])
		i += n
	}
}

// permAt returns the effective permissions of the page containing addr
// without materializing it.
func (m *Memory) permAt(pageAddr uint64) (uint32, bool) {
	if p := m.lookupPage(pageAddr); p != nil {
		return p.perm, true
	}
	return m.regionPerm(pageAddr)
}

// check validates an access of n bytes starting at addr.
func (m *Memory) check(addr uint64, n int, kind AccessKind) error {
	var need uint32
	switch kind {
	case AccessRead:
		need = elf.FlagRead
	case AccessWrite:
		need = elf.FlagWrite
	case AccessExec:
		need = elf.FlagExec
	}
	// Address-space wraparound (e.g. a fault-corrupted stack pointer
	// near 2^64) is always invalid.
	if addr+uint64(n) < addr {
		return &MemFault{Addr: addr, Kind: kind}
	}
	for a := addr &^ (pageSize - 1); a < addr+uint64(n); a += pageSize {
		perm, ok := m.permAt(a)
		if !ok || perm&need == 0 {
			fa := addr
			if a > addr {
				fa = a
			}
			return &MemFault{Addr: fa, Kind: kind}
		}
	}
	return nil
}

// Read copies n bytes at addr into buf, enforcing read permission.
func (m *Memory) Read(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf), AccessRead); err != nil {
		return err
	}
	m.readRaw(addr, buf)
	return nil
}

func (m *Memory) readRaw(addr uint64, buf []byte) {
	for i := 0; i < len(buf); {
		pa := (addr + uint64(i)) &^ (pageSize - 1)
		off := (addr + uint64(i)) & (pageSize - 1)
		p := m.lookupPage(pa)
		if p == nil {
			buf[i] = 0
			i++
			continue
		}
		n := copy(buf[i:], p.data[off:])
		i += n
	}
}

// Write copies data to addr, enforcing write permission.
func (m *Memory) Write(addr uint64, data []byte) error {
	if err := m.check(addr, len(data), AccessWrite); err != nil {
		return err
	}
	// Self-modifying code support: stores that touch executable pages
	// invalidate decoded-instruction caches.
	for a := addr &^ (pageSize - 1); a < addr+uint64(len(data)); a += pageSize {
		if perm, ok := m.permAt(a); ok && perm&elf.FlagExec != 0 {
			m.codeEdit(addr, addr+uint64(len(data)))
			break
		}
	}
	m.writeRaw(addr, data)
	return nil
}

// ReadUint reads a little-endian unsigned integer of the given byte
// width with read permission enforcement.
func (m *Memory) ReadUint(addr uint64, width uint8) (uint64, error) {
	// Fast path: the access sits in one materialized readable page, so
	// a single lookup serves it (this is every operand load of the hot
	// interpreter loop).
	if off := addr & (pageSize - 1); off+uint64(width) <= pageSize {
		if p := m.lookupPage(addr &^ (pageSize - 1)); p != nil && p.perm&elf.FlagRead != 0 {
			var v uint64
			for i := uint8(0); i < width; i++ {
				v |= uint64(p.data[off+uint64(i)]) << (8 * i)
			}
			return v, nil
		}
	}
	var buf [8]byte
	if err := m.Read(addr, buf[:width]); err != nil {
		return 0, err
	}
	var v uint64
	for i := uint8(0); i < width; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	return v, nil
}

// WriteUint writes a little-endian unsigned integer of the given width.
func (m *Memory) WriteUint(addr uint64, v uint64, width uint8) error {
	// Fast path mirroring ReadUint: one page, writable, no region scan.
	if off := addr & (pageSize - 1); off+uint64(width) <= pageSize {
		pa := addr &^ (pageSize - 1)
		if p := m.lookupPage(pa); p != nil && p.perm&elf.FlagWrite != 0 {
			if p.perm&elf.FlagExec != 0 {
				m.codeEdit(addr, addr+uint64(width)) // self-modifying store, like Write
			}
			if p.cow {
				p = m.clonePage(pa, p)
			}
			for i := uint8(0); i < width; i++ {
				p.data[off+uint64(i)] = byte(v >> (8 * i))
			}
			return nil
		}
	}
	var buf [8]byte
	for i := uint8(0); i < width; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, buf[:width])
}

// Fetch copies up to n instruction bytes at addr into buf, enforcing
// execute permission on the first byte (and as many following bytes as
// are executable, so instructions ending at a segment boundary still
// decode). It returns the number of bytes available.
func (m *Memory) Fetch(addr uint64, buf []byte) (int, error) {
	if err := m.check(addr, 1, AccessExec); err != nil {
		return 0, err
	}
	n := 0
	for n < len(buf) {
		a := addr + uint64(n)
		p := m.page(a)
		if p == nil || p.perm&elf.FlagExec == 0 {
			break
		}
		// Copy the rest of the page in one go instead of a byte per
		// page lookup (instruction fetches are up to 15 bytes).
		n += copy(buf[n:], p.data[a&(pageSize-1):])
	}
	return n, nil
}

// Poke overwrites a single byte ignoring permissions. The fault injector
// uses it to mutate instruction bytes the way a hardware glitch would.
func (m *Memory) Poke(addr uint64, b byte) error {
	p := m.writablePage(addr)
	if p == nil {
		return &MemFault{Addr: addr, Kind: AccessWrite}
	}
	m.codeEdit(addr, addr+1)
	p.data[addr&(pageSize-1)] = b
	return nil
}

// Peek reads a single byte ignoring permissions.
func (m *Memory) Peek(addr uint64) (byte, error) {
	p := m.page(addr)
	if p == nil {
		return 0, &MemFault{Addr: addr, Kind: AccessRead}
	}
	return p.data[addr&(pageSize-1)], nil
}

// FlipBit toggles one bit at addr (bit 0..7), ignoring permissions.
func (m *Memory) FlipBit(addr uint64, bit uint) error {
	b, err := m.Peek(addr)
	if err != nil {
		return err
	}
	return m.Poke(addr, b^(1<<bit))
}

// PokeData overwrites a single byte ignoring permissions, like Poke,
// but only invalidates decoded-code caches when the byte actually lives
// in an executable page. The data-fault models glitch operand cells on
// every injection; evicting the warm shared code cache for a write that
// cannot alias code would make those campaigns decode-bound. Writes go
// through the copy-on-write machinery, so snapshot pages stay intact.
func (m *Memory) PokeData(addr uint64, b byte) error {
	p := m.writablePage(addr)
	if p == nil {
		return &MemFault{Addr: addr, Kind: AccessWrite}
	}
	if p.perm&elf.FlagExec != 0 {
		m.codeEdit(addr, addr+1)
	}
	p.data[addr&(pageSize-1)] = b
	return nil
}

// FlipDataBit toggles one bit at addr (bit 0..7) with PokeData's
// cache-preserving semantics — the transient-data-fault primitive.
func (m *Memory) FlipDataBit(addr uint64, bit uint) error {
	b, err := m.Peek(addr)
	if err != nil {
		return err
	}
	return m.PokeData(addr, b^(1<<bit))
}
