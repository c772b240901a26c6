// Package static is the CFG analysis engine over decoded programs:
// basic blocks, the dominator tree and per-instruction register/flag
// effects (sem.go), plus the countermeasure verifier built on top of
// them (verify.go, verifyir.go, verifybir.go) and the transparent-skip
// test the multi-fault pruner consumes (inert.go).
//
// The paper's loop only ever *measures* countermeasure strength by
// exhaustive fault simulation; this package closes the gap Rauzy &
// Guilley's provable-countermeasure line points at: the invariants the
// hardening passes construct (a step-counter cell re-read on every
// fault-response-free exit, clone spacing wider than the largest
// multi-skip window, doubled detection compares) are checked
// structurally, without running a single injection.
//
// All analyses are conservative: they over-approximate reachability,
// so a "proved" fact (a covered exit) is sound while a finding may
// occasionally be a false alarm on code the decoder cannot follow. The
// toolchain's own binaries are fully decodable with direct branches
// only, where the CFG is exact.
package static

import (
	"fmt"
	"sort"

	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/isa"
)

// maxInsts bounds CFG construction so a fuzzed byte soup cannot make
// the worklist decode unbounded overlapping instruction streams.
const maxInsts = 1 << 20

// Program is the instruction-level view of a binary's reachable code:
// every instruction reachable from the entry point by following direct
// control flow, with per-address successor edges.
type Program struct {
	Entry uint64

	// Insts maps each reachable address to its decoded instruction.
	Insts map[uint64]isa.Inst

	// Succs maps each reachable address to its static control-flow
	// successors (branch targets and fall-throughs, in that order).
	Succs map[uint64][]uint64

	// Undecoded records reachable addresses whose bytes do not decode
	// (the emulator crashes there; they are kept as terminal nodes).
	Undecoded map[uint64]error

	// Exits classifies reachable SYSCALL instructions that may
	// terminate the process (see refineExits).
	Exits map[uint64]Exit

	// Order is every reachable address in ascending order.
	Order []uint64
}

// Exit describes a syscall statically classified as a process exit.
// Definite means RAX is a proven exit number (the instruction has no
// fall-through); otherwise RAX could not be resolved and the syscall is
// conservatively treated as a possible exit that may also fall through.
// Code is the exit status (from RDI) when CodeKnown.
type Exit struct {
	Definite  bool
	Code      int64
	CodeKnown bool
}

// Block is one basic block of the CFG.
type Block struct {
	Start uint64   // address of the leader instruction
	Addrs []uint64 // instruction addresses, in layout order
	Succs []*Block
	Preds []*Block

	// Index is the block's position in CFG.Blocks (ascending Start).
	Index int

	idom *Block
}

// End returns the address of the block's last instruction.
func (b *Block) End() uint64 { return b.Addrs[len(b.Addrs)-1] }

// CFG is the basic-block graph over a Program, rooted at the entry.
type CFG struct {
	Prog   *Program
	Entry  *Block
	Blocks []*Block // ascending by Start
	byAddr map[uint64]*Block
}

// BlockAt returns the block whose leader is addr, or nil.
func (g *CFG) BlockAt(addr uint64) *Block { return g.byAddr[addr] }

// Analysis bundles the program with its CFG and dominator tree, the
// facts the verifier consumes.
type Analysis struct {
	Bin  *elf.Binary
	Prog *Program
	CFG  *CFG
}

// Analyze decodes the binary from its entry point and builds the CFG
// and dominator tree. It fails only when the entry itself is unmapped;
// unreachable or undecodable tails are recorded, not fatal (the
// emulator crashes there, which the analyses model as terminal nodes).
func Analyze(bin *elf.Binary) (*Analysis, error) {
	prog, err := Explore(bin)
	if err != nil {
		return nil, err
	}
	cfg := BuildCFG(prog)
	cfg.Dominators()
	return &Analysis{Bin: bin, Prog: prog, CFG: cfg}, nil
}

// Explore decodes every instruction reachable from the binary's entry
// point by following static successors: fall-through, direct branch
// targets, and both sides of calls and conditional branches. RET has no
// static successors (this ISA has no indirect branches, so the only
// unfollowed edge is the return, which the CFG over-approximates by
// giving CALL a fall-through edge).
func Explore(bin *elf.Binary) (*Program, error) {
	sec := bin.SectionAt(bin.Entry)
	if sec == nil {
		return nil, fmt.Errorf("static: entry %#x is unmapped", bin.Entry)
	}
	p := &Program{
		Entry:     bin.Entry,
		Insts:     make(map[uint64]isa.Inst),
		Succs:     make(map[uint64][]uint64),
		Undecoded: make(map[uint64]error),
	}
	work := []uint64{bin.Entry}
	seen := map[uint64]bool{bin.Entry: true}
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		if len(p.Insts)+len(p.Undecoded) >= maxInsts {
			break
		}
		s := bin.SectionAt(addr)
		if s == nil || addr < s.Addr || addr-s.Addr >= uint64(len(s.Data)) {
			p.Undecoded[addr] = fmt.Errorf("static: %#x is unmapped", addr)
			continue
		}
		in, err := decode.Decode(s.Data[addr-s.Addr:], addr)
		if err != nil {
			p.Undecoded[addr] = err
			continue
		}
		p.Insts[addr] = in
		succs := successors(in)
		p.Succs[addr] = succs
		for _, t := range succs {
			if !seen[t] {
				seen[t] = true
				work = append(work, t)
			}
		}
	}
	refineExits(p)
	p.Order = make([]uint64, 0, len(p.Insts)+len(p.Undecoded))
	for a := range p.Insts {
		p.Order = append(p.Order, a)
	}
	for a := range p.Undecoded {
		p.Order = append(p.Order, a)
	}
	sort.Slice(p.Order, func(i, j int) bool { return p.Order[i] < p.Order[j] })
	return p, nil
}

// exitSyscall reports whether rax selects an exit system call.
func exitSyscall(rax int64) bool { return rax == 60 || rax == 231 }

// refineExits classifies SYSCALL instructions. The raw successor map
// gives every syscall a fall-through edge, but a syscall whose RAX is
// statically a proven exit number never returns — keeping its phantom
// edge would route reachability through a crash node and destroy
// precision right where the hardening patterns put their exit stubs. For each syscall, RAX (and RDI, for the exit status) is
// resolved by a bounded straight-line backward walk; proven exits lose
// their successors, and addresses only reachable through those phantom
// edges are dropped from the program.
func refineExits(p *Program) {
	preds := make(map[uint64][]uint64, len(p.Succs))
	for a, succs := range p.Succs {
		for _, s := range succs {
			preds[s] = append(preds[s], a)
		}
	}
	p.Exits = make(map[uint64]Exit)
	changed := false
	for addr, in := range p.Insts {
		if in.Op != isa.SYSCALL {
			continue
		}
		rax, raxKnown := regConstAt(p, preds, addr, isa.RAX)
		if raxKnown && !exitSyscall(rax) {
			continue // a proven read/write syscall: plain fall-through
		}
		rdi, rdiKnown := regConstAt(p, preds, addr, isa.RDI)
		e := Exit{Definite: raxKnown, Code: rdi, CodeKnown: rdiKnown}
		p.Exits[addr] = e
		if e.Definite {
			p.Succs[addr] = nil
			changed = true
		}
	}
	if !changed {
		return
	}
	// Garbage-collect addresses only reachable through removed edges.
	reach := map[uint64]bool{p.Entry: true}
	work := []uint64{p.Entry}
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range p.Succs[a] {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	for a := range p.Insts {
		if !reach[a] {
			delete(p.Insts, a)
			delete(p.Succs, a)
			delete(p.Exits, a)
		}
	}
	for a := range p.Undecoded {
		if !reach[a] {
			delete(p.Undecoded, a)
		}
	}
}

// regConstAt resolves the value of reg immediately before addr by
// walking backwards through straight-line predecessors: the walk
// follows unique fall-through edges, stops at joins, and succeeds on a
// `mov reg, imm` (full-width, so the immediate is the whole value). Any
// other write to reg, a join, or the walk bound gives up.
func regConstAt(p *Program, preds map[uint64][]uint64, addr uint64, reg isa.Reg) (int64, bool) {
	cur := addr
	for range [64]struct{}{} {
		ps := preds[cur]
		if len(ps) != 1 {
			return 0, false
		}
		pa := ps[0]
		succs := p.Succs[pa]
		if len(succs) != 1 || succs[0] != cur {
			return 0, false // conditional edge: not straight-line
		}
		in, ok := p.Insts[pa]
		if !ok {
			return 0, false
		}
		if in.Op == isa.MOV && in.Dst.Kind == isa.KindReg && in.Dst.Reg == reg &&
			in.Dst.Width >= 4 && in.Src.Kind == isa.KindImm {
			return in.Src.Imm, true
		}
		if EffectsOf(in).Has(RegBit(reg)) {
			return 0, false
		}
		cur = pa
	}
	return 0, false
}

// successors returns an instruction's static control-flow successors,
// mirroring the emulator's Step dispatch: JMP transfers to its target;
// JCC to the target or the fall-through; CALL is over-approximated with
// both the target and the return site (the callee eventually RETs
// there); RET, HLT and UD2 end the path (halt errors are crashes);
// everything else, including SYSCALL, falls through.
func successors(in isa.Inst) []uint64 {
	next := in.Addr + uint64(in.EncLen)
	switch in.Op {
	case isa.JMP:
		return []uint64{in.Target}
	case isa.JCC:
		return []uint64{in.Target, next}
	case isa.CALL:
		return []uint64{in.Target, next}
	case isa.RET, isa.HLT, isa.UD2:
		return nil
	default:
		return []uint64{next}
	}
}

// IsTerminal reports whether the address ends its path: an instruction
// with no static successors, or an undecodable/unmapped address (the
// emulator crashes there).
func (p *Program) IsTerminal(addr uint64) bool { return len(p.Succs[addr]) == 0 }

// BuildCFG groups a Program's instructions into basic blocks. Leaders
// are the entry, every branch/call target, and every successor of an
// instruction with more than one successor or with none (path ends).
// Undecoded addresses become single-instruction terminal blocks.
func BuildCFG(p *Program) *CFG {
	leader := map[uint64]bool{p.Entry: true}
	for addr := range p.Undecoded {
		leader[addr] = true
	}
	for addr, succs := range p.Succs {
		in := p.Insts[addr]
		if len(succs) != 1 || in.Op.IsBranch() {
			for _, t := range succs {
				leader[t] = true
			}
		}
	}
	// A fall-through target that some other instruction also jumps to
	// must start its own block.
	preds := map[uint64]int{}
	for _, succs := range p.Succs {
		for _, t := range succs {
			preds[t]++
		}
	}
	for t, n := range preds {
		if n > 1 {
			leader[t] = true
		}
	}

	g := &CFG{Prog: p, byAddr: make(map[uint64]*Block)}
	for _, addr := range p.Order {
		if !leader[addr] {
			continue
		}
		b := &Block{Start: addr}
		cur := addr
		for {
			b.Addrs = append(b.Addrs, cur)
			succs := p.Succs[cur]
			if len(succs) != 1 || leader[succs[0]] {
				break
			}
			if _, ok := p.Insts[succs[0]]; !ok {
				if _, und := p.Undecoded[succs[0]]; !und {
					break // truncated exploration (instruction cap)
				}
			}
			cur = succs[0]
		}
		g.Blocks = append(g.Blocks, b)
		g.byAddr[addr] = b
	}
	for i, b := range g.Blocks {
		b.Index = i
		for _, t := range p.Succs[b.End()] {
			if sb := g.byAddr[t]; sb != nil {
				b.Succs = append(b.Succs, sb)
				sb.Preds = append(sb.Preds, b)
			}
		}
	}
	g.Entry = g.byAddr[p.Entry]
	return g
}

// Reachable returns the blocks reachable from the entry block, as a
// set keyed by leader address.
func (g *CFG) Reachable() map[uint64]bool {
	seen := map[uint64]bool{}
	if g.Entry == nil {
		return seen
	}
	work := []*Block{g.Entry}
	seen[g.Entry.Start] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s.Start] {
				seen[s.Start] = true
				work = append(work, s)
			}
		}
	}
	return seen
}
