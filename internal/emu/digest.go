package emu

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// StateDigest returns a canonical SHA-256 digest of the machine's
// complete architectural state: registers, RIP, flags, step counter,
// exit status, the I/O streams (including the consumed-input position),
// and the content of every mapped page. Two machines with equal digests
// under the same run configuration (step limit, hooks) behave
// identically from here on — the soundness foundation of the campaign
// engine's reference-state inheritance (fault.PairPruner) and of its
// continuation memo: a faulted run whose digest matches the
// reference run's at the same step has provably re-converged, and one
// that matches another faulted run's inherits its continuation outcome.
//
// Run configuration is deliberately outside the digest: hooks and the
// step limit are not machine state, so callers must only compare
// digests of machines they would continue under identical
// configuration.
//
// Pages enter the digest through their own content digest (see
// hashPages). A frozen copy-on-write page is immutable, so its content
// digest is computed once and cached on the page for every machine
// sharing it; only the machine's private pages are rehashed per call.
func (m *Machine) StateDigest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range m.Regs {
		put(r)
	}
	put(m.RIP)
	put(m.Rflags)
	put(m.Steps)
	if m.Exited {
		put(1)
	} else {
		put(0)
	}
	put(uint64(int64(m.ExitCode)))
	put(uint64(m.inPos))
	put(uint64(len(m.Stdin)))
	h.Write(m.Stdin)
	put(uint64(len(m.Stdout)))
	h.Write(m.Stdout)
	put(uint64(len(m.Stderr)))
	h.Write(m.Stderr)
	h.Write(m.Mem.hashPages())
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// pageSum is a page's cached content digest; zero marks an all-zero
// page, which the page walk skips.
type pageSum struct {
	zero bool
	d    [32]byte
}

// zeroSum is the one cached digest of every all-zero frozen page.
var zeroSum = &pageSum{zero: true}

// sum returns the page's content digest. A copy-on-write page never
// changes again, so its digest is computed once and published on the
// page; frozen pages are shared by concurrently running machines, so
// the publication is atomic (two racing first readers store equal
// values). A private page is mutable and is hashed afresh.
func (p *page) sum() *pageSum {
	if !p.cow {
		return hashPage(p)
	}
	if s := p.digest.Load(); s != nil {
		return s
	}
	s := hashPage(p)
	p.digest.Store(s)
	return s
}

// hashPage digests one page's content.
func hashPage(p *page) *pageSum {
	var zero [pageSize]byte
	if p.data == zero {
		return zeroSum
	}
	return &pageSum{d: sha256.Sum256(p.data[:])}
}

// hashPages returns the canonical page walk as one byte stream:
// ascending page addresses, each followed by its page's content digest.
// The walk is canonical with respect to lazy materialization — all-zero
// pages are skipped, so a region page reads the same whether it was
// materialized (and never written, or written back to zero) or is
// still virtual (reads of unmaterialized region pages return zero bytes
// either way) — and with respect to sharing: a frozen page and its
// private clone contribute the same digest. Page permissions are
// derived from the region list, which resumed machines share with their
// snapshot, so they carry no per-machine state and stay outside the
// digest.
func (m *Memory) hashPages() []byte {
	addrs := make([]uint64, 0, len(m.pages)+len(m.base))
	for a := range m.pages {
		addrs = append(addrs, a)
	}
	for a := range m.base {
		if m.pages != nil {
			if _, shadowed := m.pages[a]; shadowed {
				continue
			}
		}
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	out := make([]byte, 0, len(addrs)*(8+sha256.Size))
	for _, a := range addrs {
		s := m.lookupPage(a).sum()
		if s.zero {
			continue
		}
		out = binary.LittleEndian.AppendUint64(out, a)
		out = append(out, s.d[:]...)
	}
	return out
}
