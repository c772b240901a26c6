package passes

import (
	"fmt"

	"github.com/r2r/reinforce/internal/ir"
)

// Cells used by the skip-window hardening countermeasure.
const (
	// CellStepCtr is the per-block step counter: reset on block entry,
	// incremented between instructions, verified against the block's
	// static increment count before any fault-response-free exit.
	CellStepCtr = "sw.ctr"
	// CellSWOk carries the block's combined validation bit across the
	// two-stage check (values may not cross block boundaries).
	CellSWOk = "sw.ok"
	// CellSWCond carries a duplicated branch condition across the check
	// blocks, like DuplicateAll's dup.cond.
	CellSWCond = "sw.cond"
)

// DefaultSkipWindow is the widest instruction-skip window the pass
// defends against by construction — the MaxWindow of the built-in
// multi-instruction-skip fault model.
const DefaultSkipWindow = 4

// incrementEvery is the step-counter cadence: one increment per this
// many block instructions (plus one after the final instruction and
// between clones).
const incrementEvery = 2

// SkipWindowHarden is the multi-fault-resistant duplication pass: the
// order-2 countermeasure the single-fault schemes of the paper lack
// (cf. Boespflug et al., Moro et al.). It reuses DuplicateAll's
// duplicate-and-compare machinery but arranges redundancy so that no
// single glitch window — and no pair of single-instruction skips — can
// remove a computation together with its verification:
//
//   - redundant computations are *spaced*: every clone is emitted in a
//     separate region at the end of its block, always more than
//     DefaultSkipWindow instructions after the original, so one
//     contiguous skip of up to DefaultSkipWindow instructions cannot
//     cover both;
//   - blocks carry a *step counter* (CellStepCtr): reset on entry,
//     incremented between instructions, and verified against the
//     block's static increment count before every fault-response-free
//     exit — a sustained glitch that swallows a whole check region also
//     swallows increments and is caught by the count;
//   - validation is *chained* in two stages: the combined agreement-and-
//     count bit gates the exit directly, and is also parked in CellSWOk
//     and re-checked from the cell in a second block, so an order-2
//     attack that skips a computation and the first check branch still
//     runs into the second.
//
// Defeating the scheme requires at least three coordinated faults: one
// for the computation, one per validation stage — one order beyond the
// order-2 campaigns the engine simulates.
type SkipWindowHarden struct {
	// Stats is filled during Run when non-nil.
	Stats *SkipWindowStats
}

// SkipWindowStats reports what the pass did.
type SkipWindowStats struct {
	BlocksInstrumented int
	BlocksSkipped      int // terminator-only and fault-response blocks
	Duplicated         int // computations cloned into the spaced region
	Increments         int // step-counter increments inserted
	Checks             int // two-stage validation chains added
}

// Name implements Pass.
func (SkipWindowHarden) Name() string { return "skip-window-harden" }

// Run implements Pass.
func (p SkipWindowHarden) Run(m *ir.Module) error {
	stats := p.Stats
	if stats == nil {
		stats = &SkipWindowStats{}
	}
	m.EnsureCell(CellStepCtr, ir.I64)
	m.EnsureCell(CellSWOk, ir.I1)
	m.EnsureCell(CellSWCond, ir.I1)

	seq := 0
	for _, f := range m.Funcs {
		// Snapshot: the pass appends check blocks while iterating.
		original := append([]*ir.Block{}, f.Blocks...)
		for _, b := range original {
			seq++
			if err := skipWindowBlock(f, b, stats, seq); err != nil {
				return err
			}
		}
	}
	return nil
}

// swIncrement appends a step-counter increment (read, add 1, write) to
// the instruction list.
func swIncrement(insts []*ir.Instr) []*ir.Instr {
	rd := &ir.Instr{Op: ir.OpCellRead, Ty: ir.I64, Cell: CellStepCtr}
	add := &ir.Instr{Op: ir.OpBin, Ty: ir.I64, Bin: ir.Add, Args: []ir.Value{rd, ir.C64(1)}}
	wr := &ir.Instr{Op: ir.OpCellWrite, Ty: ir.Void, Cell: CellStepCtr, Args: []ir.Value{add}}
	return append(insts, rd, add, wr)
}

// safeToCloneAtEnd reports whether re-executing instruction in (at
// position pos of the original list) just before the terminator is
// sound: loads need memory unchanged until then, cell reads need the
// cell unwritten, and calls/syscalls invalidate both. Pure computations
// are always safe — their operands are block-local SSA values.
func safeToCloneAtEnd(orig []*ir.Instr, pos int, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpLoad:
		for i := pos + 1; i < len(orig)-1; i++ {
			switch orig[i].Op {
			case ir.OpStore, ir.OpCall, ir.OpSyscall:
				return false
			}
		}
	case ir.OpCellRead:
		for i := pos + 1; i < len(orig)-1; i++ {
			x := orig[i]
			if x.Op == ir.OpCellWrite && x.Cell == in.Cell {
				return false
			}
			if x.Op == ir.OpCall || x.Op == ir.OpSyscall {
				return false
			}
		}
	}
	return true
}

// skipWindowBlock rewrites one block. Layout of the result:
//
//	b:    ctr := 0
//	      inst₁ ; ctr++ ; inst₂ ; ctr++ ; … ; instₙ ; ctr++
//	      ctr++                      (boundary spacer)
//	      clone₁ ; agree₁ ; ctr++ ; clone₂ ; agree₂ ; ∧ ; ctr++ ; …
//	      ok := agree₁ ∧ … ∧ (ctr == K)
//	      sw.ok := ok
//	      br ok, chk2, flt
//	chk2: br sw.ok, cont, flt        (re-read from the cell)
//	cont: original terminator
//	flt:  faultresp
func skipWindowBlock(f *ir.Function, b *ir.Block, stats *SkipWindowStats, seq int) error {
	term := b.Terminator()
	if term == nil {
		return fmt.Errorf("skip-window-harden: unterminated block %s", b.Name)
	}
	// Fault-response blocks are the detection exit itself; blocks with
	// no body have nothing to count or duplicate.
	if term.Op == ir.OpFaultResp || len(b.Insts) == 1 {
		stats.BlocksSkipped++
		return nil
	}

	orig := b.Insts
	body := orig[:len(orig)-1]

	// Phase 1: originals interleaved with counter increments.
	newInsts := []*ir.Instr{{Op: ir.OpCellWrite, Ty: ir.Void, Cell: CellStepCtr, Args: []ir.Value{ir.C64(0)}}}
	increments := 0
	var dups []*ir.Instr // originals to clone, in order
	for i, in := range body {
		newInsts = append(newInsts, in)
		// One counter increment per incrementEvery originals: dense
		// enough that a sustained skip window either damages an
		// increment (count check) or stays inside a duplicated
		// computation (agreement check), cheap enough to keep the
		// instrumented block in the same size regime as blanket
		// duplication.
		if (i+1)%incrementEvery == 0 || i == len(body)-1 {
			newInsts = swIncrement(newInsts)
			increments++
		}
		if duplicable(in) && safeToCloneAtEnd(orig, i, in) {
			dups = append(dups, in)
		}
	}

	// Boundary spacer: together with the last original's increment this
	// puts more than DefaultSkipWindow instructions between the final
	// original and the first clone (each increment is 3 IR instructions
	// and lowers to at least as many machine instructions).
	for range (DefaultSkipWindow + 2) / 3 {
		newInsts = swIncrement(newInsts)
		increments++
	}

	// Phase 2: the spaced clone region. Each clone re-executes its
	// original's computation on the original's operands (duplicate
	// reads), and the agreement bits fold into one conjunction.
	var okChain *ir.Instr
	for _, in := range dups {
		clone := &ir.Instr{Op: in.Op, Ty: in.Ty, Bin: in.Bin, Pred: in.Pred, Cell: in.Cell,
			Args: append([]ir.Value{}, in.Args...), Dup: in}
		agree := &ir.Instr{Op: ir.OpICmp, Ty: ir.I1, Pred: ir.EQ, Args: []ir.Value{in, clone}}
		newInsts = append(newInsts, clone, agree)
		if okChain == nil {
			okChain = agree
		} else {
			okChain = &ir.Instr{Op: ir.OpBin, Ty: ir.I1, Bin: ir.And, Args: []ir.Value{okChain, agree}}
			newInsts = append(newInsts, okChain)
		}
		newInsts = swIncrement(newInsts)
		increments++
		stats.Duplicated++
	}

	// Final validation: counter against its static count, conjoined
	// with the agreement chain.
	ctrRead := &ir.Instr{Op: ir.OpCellRead, Ty: ir.I64, Cell: CellStepCtr}
	ctrOK := &ir.Instr{Op: ir.OpICmp, Ty: ir.I1, Pred: ir.EQ, Args: []ir.Value{ctrRead, ir.C64(uint64(increments))}}
	newInsts = append(newInsts, ctrRead, ctrOK)
	ok := ctrOK
	if okChain != nil {
		both := &ir.Instr{Op: ir.OpBin, Ty: ir.I1, Bin: ir.And, Args: []ir.Value{okChain, ctrOK}}
		newInsts = append(newInsts, both)
		ok = both
	}
	parkOK := &ir.Instr{Op: ir.OpCellWrite, Ty: ir.Void, Cell: CellSWOk, Args: []ir.Value{ok}}
	newInsts = append(newInsts, parkOK)

	// Continuation: the original terminator, with a block-local branch
	// condition carried through a cell (as in DuplicateAll).
	cont := f.NewBlock(fmt.Sprintf("%s_sw_ok_%d", b.Name, seq))
	cont.Role = ir.RoleSWCont
	if term.Op == ir.OpBr {
		if cond, isInst := term.Args[0].(*ir.Instr); isInst {
			carry := &ir.Instr{Op: ir.OpCellWrite, Ty: ir.Void, Cell: CellSWCond, Args: []ir.Value{cond}}
			newInsts = append(newInsts, carry)
			reread := &ir.Instr{Op: ir.OpCellRead, Ty: ir.I1, Cell: CellSWCond}
			term.Args[0] = reread
			cont.Insts = append(cont.Insts, reread)
		}
	}
	cont.Insts = append(cont.Insts, term)

	flt := f.NewBlock(fmt.Sprintf("%s_sw_flt_%d", b.Name, seq))
	flt.Role = ir.RoleSWFault
	ir.NewBuilder(flt).FaultResp()

	// Second-stage check: re-read the parked bit from the cell. An
	// attack that skips a computation and the first check branch still
	// has to get past this one.
	chk2 := f.NewBlock(fmt.Sprintf("%s_sw_chk2_%d", b.Name, seq))
	chk2.Role = ir.RoleSWCheck2
	b2 := ir.NewBuilder(chk2)
	b2.Br(b2.CellRead(CellSWOk), cont, flt)

	placeAfter(f, b, []*ir.Block{chk2, cont, flt})

	check := &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Args: []ir.Value{ok}, Then: chk2, Else: flt}
	newInsts = append(newInsts, check)
	b.Insts = newInsts
	b.Role = ir.RoleSWBody
	ir.Renumber(f, b)
	ir.Renumber(f, cont)
	stats.Increments += increments
	stats.Checks++
	stats.BlocksInstrumented++
	return nil
}
