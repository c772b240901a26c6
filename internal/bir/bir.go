// Package bir is the binary intermediate representation used by the
// Faulter+Patcher pipeline: a symbolized, relocatable view of a binary's
// code in the spirit of GTIRB (paper §IV-B2).
//
// Disassemble lifts an ELF .text section into labeled basic blocks whose
// branch operands are symbolic (labels) and whose RIP-relative data
// operands are absolute addresses. Blocks fall through in layout order.
// The patcher edits blocks freely — replacing instructions with hardened
// multi-block patterns — and Reassemble lays the result back out into a
// working executable, recomputing every displacement.
package bir

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/encode"
	"github.com/r2r/reinforce/internal/isa"
)

// Inst is an instruction with symbolized operands.
type Inst struct {
	I isa.Inst

	// TargetLabel replaces the relative displacement of branch ops.
	TargetLabel string

	// DataTarget is the absolute address a RIP-relative memory operand
	// refers to (data sections do not move during rewriting).
	DataTarget uint64

	// Protected marks countermeasure instructions inserted by the
	// patcher; the fixed-point driver will not patch them again.
	Protected bool

	// Order2 marks instructions belonging to an order-2-aware pattern
	// (patch.StyleOrder2); the pair-campaign driver escalates Protected
	// sites once but never re-patches an Order2 one.
	Order2 bool

	// OrigAddr is the address this instruction had in the source
	// binary (0 for inserted instructions).
	OrigAddr uint64
}

// Block is a labeled run of instructions. Control falls through to the
// next block in Program.Blocks unless the last instruction is an
// unconditional transfer.
type Block struct {
	Label string
	Insts []Inst
}

// Program is a relocatable program: symbolized code plus the unchanged
// data sections.
type Program struct {
	Blocks     []*Block
	EntryLabel string
	TextBase   uint64
	Data       []*elf.Section // non-executable sections, addresses fixed

	labelSeq int
}

// Errors.
var (
	ErrNoText      = errors.New("bir: no .text section")
	ErrBadTarget   = errors.New("bir: branch target outside text")
	ErrUndefLabel  = errors.New("bir: undefined label")
	ErrTextOverlap = errors.New("bir: rewritten text would overlap data")
)

// Disassemble builds a Program from a static binary produced by this
// toolchain (fully decodable .text, all branches direct).
func Disassemble(bin *elf.Binary) (*Program, error) {
	text := bin.Text()
	if text == nil {
		return nil, ErrNoText
	}

	// First sweep: decode all instructions.
	var insts []isa.Inst
	for off := 0; off < len(text.Data); {
		in, err := decode.Decode(text.Data[off:], text.Addr+uint64(off))
		if err != nil {
			return nil, fmt.Errorf("bir: at %#x: %w", text.Addr+uint64(off), err)
		}
		insts = append(insts, in)
		off += in.EncLen
	}

	// Leaders: entry, branch targets, instruction after any branch.
	leaders := map[uint64]bool{bin.Entry: true}
	if len(insts) > 0 {
		leaders[insts[0].Addr] = true
	}
	byAddr := make(map[uint64]int, len(insts))
	for i, in := range insts {
		byAddr[in.Addr] = i
		if in.Op.IsBranch() {
			if !text.Contains(in.Target) {
				return nil, fmt.Errorf("%w: %#x -> %#x", ErrBadTarget, in.Addr, in.Target)
			}
			leaders[in.Target] = true
			if i+1 < len(insts) {
				leaders[insts[i+1].Addr] = true
			}
		}
	}
	// Checked in address order, so the error names the lowest bad
	// leader whatever order the map iterates in.
	addrs := make([]uint64, 0, len(leaders))
	for a := range leaders {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		if _, ok := byAddr[a]; !ok {
			return nil, fmt.Errorf("%w: leader %#x is not an instruction boundary", ErrBadTarget, a)
		}
	}

	// Stable label assignment: ELF symbol name where available.
	labelFor := make(map[uint64]string)
	for a := range leaders {
		if name := bin.SymbolAt(a); name != "" {
			labelFor[a] = name
		} else {
			labelFor[a] = fmt.Sprintf("L_%x", a)
		}
	}

	p := &Program{TextBase: text.Addr}
	var cur *Block
	for _, in := range insts {
		if leaders[in.Addr] {
			cur = &Block{Label: labelFor[in.Addr]}
			p.Blocks = append(p.Blocks, cur)
		}
		bi := Inst{I: in, OrigAddr: in.Addr}
		if in.Op.IsBranch() {
			bi.TargetLabel = labelFor[in.Target]
			bi.I.Dst.Imm = 0 // displacement is symbolic now
		}
		if mo := bi.I.MemOperand(); mo != nil && mo.Mem.RIPRel {
			bi.DataTarget = in.Addr + uint64(in.EncLen) + uint64(int64(mo.Mem.Disp))
			mo.Mem.Disp = 0
		}
		cur.Insts = append(cur.Insts, bi)
	}

	entryLabel, ok := labelFor[bin.Entry]
	if !ok {
		return nil, fmt.Errorf("%w: entry %#x", ErrBadTarget, bin.Entry)
	}
	p.EntryLabel = entryLabel

	for _, s := range bin.Sections {
		if s.Flags&elf.FlagExec == 0 {
			p.Data = append(p.Data, s)
		}
	}
	return p, nil
}

// NewLabel returns a fresh label with the given prefix.
func (p *Program) NewLabel(prefix string) string {
	p.labelSeq++
	return fmt.Sprintf("%s_%d", prefix, p.labelSeq)
}

// Block returns the block with the given label, or nil.
func (p *Program) Block(label string) *Block {
	for _, b := range p.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// InstRef locates an instruction inside a program.
type InstRef struct {
	Block *Block
	Index int
}

// FindByAddr locates the instruction whose last-layout address is addr.
// Reassemble refreshes the layout addresses (Inst.I.Addr).
func (p *Program) FindByAddr(addr uint64) (InstRef, bool) {
	for _, b := range p.Blocks {
		for i := range b.Insts {
			if b.Insts[i].I.Addr == addr {
				return InstRef{Block: b, Index: i}, true
			}
		}
	}
	return InstRef{}, false
}

// blockIndex returns the layout position of b, or -1.
func (p *Program) blockIndex(b *Block) int {
	for i, blk := range p.Blocks {
		if blk == b {
			return i
		}
	}
	return -1
}

// insertBlocksAfter places blocks directly after position idx.
func (p *Program) insertBlocksAfter(idx int, blocks []*Block) {
	rest := make([]*Block, len(p.Blocks[idx+1:]))
	copy(rest, p.Blocks[idx+1:])
	p.Blocks = append(p.Blocks[:idx+1], append(blocks, rest...)...)
}

// SplitAfter arranges for the instruction at ref to be the last one in
// its block, splitting the tail into a fresh fall-through block when
// necessary, and returns the label of the instruction that follows ref
// in layout order. Hardened patterns use that label as the "happy flow"
// continuation target (paper Tables I–III).
func (p *Program) SplitAfter(ref InstRef) string {
	b := ref.Block
	idx := p.blockIndex(b)
	if ref.Index == len(b.Insts)-1 {
		if idx+1 < len(p.Blocks) {
			return p.Blocks[idx+1].Label
		}
		end := &Block{Label: p.NewLabel(b.Label + "_end")}
		p.AppendBlock(end)
		return end.Label
	}
	cont := &Block{
		Label: p.NewLabel(b.Label + "_cont"),
		Insts: append([]Inst{}, b.Insts[ref.Index+1:]...),
	}
	b.Insts = b.Insts[:ref.Index+1]
	p.insertBlocksAfter(idx, []*Block{cont})
	return cont.Label
}

// ReplaceWithBlocks substitutes instruction ref with a hardened pattern:
// the instructions of the first replacement block are spliced in place
// (inheriting the enclosing block prefix), remaining replacement blocks
// are inserted after, and any tail of the original block is split into a
// fresh continuation block so in-pattern labels can exist.
//
// The label of the code that follows the pattern is returned (empty when
// the pattern ends the program). Callers that need the continuation
// label while *building* the pattern should call SplitAfter first.
func (p *Program) ReplaceWithBlocks(ref InstRef, repl []*Block) string {
	b := ref.Block
	idx := p.blockIndex(b)
	if idx < 0 || len(repl) == 0 {
		return ""
	}

	tail := append([]Inst{}, b.Insts[ref.Index+1:]...)
	head := b.Insts[:ref.Index]

	// First replacement block merges into the original block.
	b.Insts = append(append([]Inst{}, head...), repl[0].Insts...)
	newBlocks := append([]*Block{}, repl[1:]...)

	contLabel := ""
	if len(tail) > 0 {
		cont := &Block{Label: p.NewLabel(b.Label + "_cont"), Insts: tail}
		contLabel = cont.Label
		newBlocks = append(newBlocks, cont)
	} else if idx+1 < len(p.Blocks) {
		contLabel = p.Blocks[idx+1].Label
	}

	p.insertBlocksAfter(idx, newBlocks)
	return contLabel
}

// AppendBlock adds a block at the end of the layout (e.g. the fault
// handler).
func (p *Program) AppendBlock(b *Block) { p.Blocks = append(p.Blocks, b) }

// NumInsts counts instructions.
func (p *Program) NumInsts() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Reassemble lays the program out at TextBase and produces a new binary.
// As a side effect it refreshes every instruction's layout address
// (Inst.I.Addr), which FindByAddr relies on in the next iteration.
func (p *Program) Reassemble() (*elf.Binary, error) {
	// Pass 1: sizes and addresses.
	addr := p.TextBase
	labelAddr := make(map[string]uint64, len(p.Blocks))
	for _, b := range p.Blocks {
		if _, dup := labelAddr[b.Label]; dup {
			return nil, fmt.Errorf("bir: duplicate label %q", b.Label)
		}
		labelAddr[b.Label] = addr
		for i := range b.Insts {
			in := &b.Insts[i]
			sized := in.I
			if sized.Op.IsBranch() {
				sized.Dst.Imm = 0
			}
			n, err := encode.Len(sized)
			if err != nil {
				return nil, fmt.Errorf("bir: block %s inst %d (%s): %w", b.Label, i, in.I.String(), err)
			}
			in.I.Addr = addr
			in.I.EncLen = n
			addr += uint64(n)
		}
	}

	// Guard against growing into the data sections.
	for _, s := range p.Data {
		if s.Addr < addr && s.Addr+s.Size() > p.TextBase {
			return nil, fmt.Errorf("%w: text [%#x,%#x) vs %s at %#x",
				ErrTextOverlap, p.TextBase, addr, s.Name, s.Addr)
		}
	}

	// Pass 2: encode with resolved displacements.
	var text []byte
	for _, b := range p.Blocks {
		for i := range b.Insts {
			in := b.Insts[i] // copy; patch displacements locally
			end := int64(in.I.Addr) + int64(in.I.EncLen)
			if in.I.Op.IsBranch() {
				t, ok := labelAddr[in.TargetLabel]
				if !ok {
					return nil, fmt.Errorf("%w: %q in block %s", ErrUndefLabel, in.TargetLabel, b.Label)
				}
				in.I.Dst.Imm = int64(t) - end
				b.Insts[i].I.Target = t
			}
			if mo := in.I.MemOperand(); mo != nil && mo.Mem.RIPRel {
				mo.Mem.Disp = int32(int64(in.DataTarget) - end)
			}
			bytes, err := encode.Encode(in.I)
			if err != nil {
				return nil, fmt.Errorf("bir: encode %s: %w", in.I.String(), err)
			}
			if len(bytes) != in.I.EncLen {
				return nil, fmt.Errorf("bir: %s: size changed between passes (%d -> %d)",
					in.I.String(), in.I.EncLen, len(bytes))
			}
			text = append(text, bytes...)
		}
	}

	bin := &elf.Binary{
		Sections: []*elf.Section{{
			Name:  ".text",
			Addr:  p.TextBase,
			Data:  text,
			Flags: elf.FlagRead | elf.FlagExec,
		}},
	}
	for _, s := range p.Data {
		bin.Sections = append(bin.Sections, s)
	}

	// Symbols: one per block label, sorted for determinism.
	labels := make([]string, 0, len(labelAddr))
	for l := range labelAddr {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		if labelAddr[labels[i]] != labelAddr[labels[j]] {
			return labelAddr[labels[i]] < labelAddr[labels[j]]
		}
		return labels[i] < labels[j]
	})
	for _, l := range labels {
		bin.Symbols = append(bin.Symbols, elf.Symbol{Name: l, Addr: labelAddr[l], Func: true})
	}

	entry, ok := labelAddr[p.EntryLabel]
	if !ok {
		return nil, fmt.Errorf("%w: entry %q", ErrUndefLabel, p.EntryLabel)
	}
	bin.Entry = entry

	if err := bin.Validate(); err != nil {
		return nil, fmt.Errorf("bir: %w", err)
	}
	return bin, nil
}

// Listing renders the program as annotated assembly for inspection.
func (p *Program) Listing() string {
	var sb strings.Builder
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Label)
		for _, in := range b.Insts {
			mark := " "
			if in.Protected {
				mark = "+"
			}
			switch {
			case in.I.Op.IsBranch():
				fmt.Fprintf(&sb, " %s %s %s\n", mark, in.I.Mnemonic(), in.TargetLabel)
			case in.DataTarget != 0:
				fmt.Fprintf(&sb, " %s %s  ; data %#x\n", mark, in.I.String(), in.DataTarget)
			default:
				fmt.Fprintf(&sb, " %s %s\n", mark, in.I.String())
			}
		}
	}
	return sb.String()
}
