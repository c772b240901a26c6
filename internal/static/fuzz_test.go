package static

import (
	"testing"

	"github.com/r2r/reinforce/internal/elf"
)

// fuzzBin wraps arbitrary bytes as an executable text section the way
// the bit-flip model produces them: any byte soup must analyze without
// panicking.
func fuzzBin(code []byte) *elf.Binary {
	return &elf.Binary{
		Entry: 0x401000,
		Sections: []*elf.Section{
			{Name: ".text", Addr: 0x401000, Data: code, Flags: elf.FlagRead | elf.FlagExec},
		},
	}
}

// FuzzCFGBuilder: decoding arbitrary bytes and building the CFG must
// never panic, and the structural invariants the verifier leans on
// must hold: blocks partition the reachable instructions and edges are
// symmetric.
func FuzzCFGBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x90, 0x90, 0xC3})                               // nop; nop; ret
	f.Add([]byte{0xEB, 0xFE})                                     // jmp self
	f.Add([]byte{0x75, 0x02, 0x0F, 0x05, 0xF4})                   // jne +2; syscall; hlt
	f.Add([]byte{0x48, 0xC7, 0xC0, 0x3C, 0, 0, 0, 0x0F, 0x05})    // mov rax,60; syscall
	f.Add([]byte{0xE8, 0x00, 0x00, 0x00, 0x00, 0xC3})             // call +0; ret
	f.Add([]byte{0x06, 0x06, 0x06})                               // undecodable
	f.Add([]byte{0x74, 0xFE, 0xEB, 0xFC, 0x90, 0x48, 0xFF, 0xC0}) // tangled loops
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		a, err := Analyze(fuzzBin(code))
		if err != nil {
			return // only an unmapped entry fails; empty .text does
		}
		p, g := a.Prog, a.CFG

		seen := make(map[uint64]bool)
		for _, b := range g.Blocks {
			if len(b.Addrs) == 0 {
				t.Fatalf("empty block at %#x", b.Start)
			}
			if b.Addrs[0] != b.Start {
				t.Fatalf("block %#x: first addr %#x", b.Start, b.Addrs[0])
			}
			for i, addr := range b.Addrs {
				if seen[addr] {
					t.Fatalf("address %#x in two blocks", addr)
				}
				seen[addr] = true
				_, inst := p.Insts[addr]
				_, und := p.Undecoded[addr]
				if !inst && !und {
					t.Fatalf("block addr %#x not in program", addr)
				}
				// Only the last instruction may branch or terminate.
				if i < len(b.Addrs)-1 && len(p.Succs[addr]) != 1 {
					t.Fatalf("non-tail addr %#x has %d succs", addr, len(p.Succs[addr]))
				}
			}
			for _, s := range b.Succs {
				found := false
				for _, pb := range s.Preds {
					if pb == b {
						found = true
					}
				}
				if !found {
					t.Fatalf("edge %#x->%#x not in preds", b.Start, s.Start)
				}
			}
		}
		for addr := range p.Insts {
			if !seen[addr] {
				t.Fatalf("instruction %#x not in any block", addr)
			}
		}
	})
}
