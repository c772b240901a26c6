// Package patch implements the paper's patcher (§IV-B2): replacing
// fault-vulnerable instructions with the hardened local patterns of
// Tables I–III, and the iterative Faulter+Patcher fixed-point driver
// (§IV-B3) that re-runs the fault simulation after each patch round.
//
// Beyond the paper, the driver has an order-2 mode (Options.Order = 2):
// after the single-fault fixed point it simulates fault *pairs* and
// escalates the sites of successful pairs to StyleOrder2 — the same
// Table I–III builders with two chained verifications — iterating until
// no pair succeeds.
package patch

import (
	"errors"
	"fmt"
	"math"

	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/isa"
)

// ErrUnpatchable marks sites the local patterns cannot protect (the
// driver records them as residual vulnerabilities rather than failing).
var ErrUnpatchable = errors.New("patch: no hardened pattern for site")

// Style selects between the patterns exactly as printed in the paper's
// Tables I–III and a hardened variant.
type Style uint8

// Pattern styles.
const (
	// StyleFallthrough (default) keeps the happy flow on the
	// fall-through edge and branches *to* the fault handler only on
	// detection. Detection branches are never taken in a correct run,
	// so single bit flips in their displacements are dead — this is
	// what lets the bit-flip residual drop (paper §V-C reports a ~50%
	// reduction; the as-printed patterns leave every pattern-internal
	// taken branch as a fresh displacement target).
	StyleFallthrough Style = iota

	// StylePaper reproduces Tables I–III as printed: a je jumps *over*
	// a call-faulthandler into the happy flow.
	StylePaper

	// StyleOrder2 is StyleFallthrough with two chained verifications
	// per site, each re-deriving the checked state (a second compare, a
	// flag reload, a re-executed authoritative instruction), so a pair
	// of single-instruction skips cannot remove a computation together
	// with its check — the multi-fault-resistant patterns the order-2
	// driver escalates to (cf. Boespflug et al.). Every instruction of
	// such a pattern carries the Order2 mark.
	StyleOrder2
)

// checks is the number of chained verifications a style's patterns
// emit per site.
func (s Style) checks() int {
	if s == StyleOrder2 {
		return 2
	}
	return 1
}

// emit returns a pattern's blocks, setting the Order2 mark on every
// instruction of a StyleOrder2 pattern.
func emit(style Style, blocks ...*bir.Block) []*bir.Block {
	if style == StyleOrder2 {
		for _, b := range blocks {
			for i := range b.Insts {
				b.Insts[i].Order2 = true
			}
		}
	}
	return blocks
}

// FaulthandlerLabel names the injected fault-response routine.
const FaulthandlerLabel = "faulthandler"

// redZone is the x86-64 System V red zone the cmp/jcc patterns must
// step over before pushing (paper Table II: "Due to Intel's red zone,
// we have to subtract 128 bytes from rsp").
const redZone = 128

// prot wraps an instruction as a protected (inserted) bir instruction.
func prot(in isa.Inst) bir.Inst {
	return bir.Inst{I: in, Protected: true}
}

// protData wraps a protected instruction that carries a RIP-relative
// data target copied from the original site.
func protData(in isa.Inst, dataTarget uint64) bir.Inst {
	return bir.Inst{I: in, Protected: true, DataTarget: dataTarget}
}

// protBranch wraps a protected branch to a label.
func protBranch(in isa.Inst, target string) bir.Inst {
	return bir.Inst{I: in, Protected: true, TargetLabel: target}
}

// EnsureFaulthandler appends the fault-response routine once: it writes
// "FAULT\n" to stderr and exits with the detection code 42. The message
// bytes are materialized on the stack so no data section is needed.
func EnsureFaulthandler(p *bir.Program) {
	if p.Block(FaulthandlerLabel) != nil {
		return
	}
	const faultMsg = 0x0A544C554146 // "FAULT\n" little-endian
	p.AppendBlock(&bir.Block{Label: FaulthandlerLabel, Insts: []bir.Inst{
		prot(isa.NewInst(isa.MOV, isa.R(isa.RAX), isa.Imm(faultMsg))),
		prot(isa.NewInst(isa.PUSH, isa.R(isa.RAX))),
		prot(isa.NewInst(isa.MOV, isa.R(isa.RAX), isa.Imm(1))),
		prot(isa.NewInst(isa.MOV, isa.R(isa.RDI), isa.Imm(2))),
		prot(isa.NewInst(isa.MOV, isa.R(isa.RSI), isa.R(isa.RSP))),
		prot(isa.NewInst(isa.MOV, isa.R(isa.RDX), isa.Imm(6))),
		prot(isa.NewInst(isa.SYSCALL)),
		prot(isa.NewInst(isa.MOV, isa.R(isa.RAX), isa.Imm(60))),
		prot(isa.NewInst(isa.MOV, isa.R(isa.RDI), isa.Imm(42))),
		prot(isa.NewInst(isa.SYSCALL)),
	}})
}

// callFaulthandler builds the "call faulthandler" instruction.
func callFaulthandler() bir.Inst {
	return protBranch(isa.NewInst(isa.CALL, isa.Imm(0)), FaulthandlerLabel)
}

// pickScratch chooses a 64-bit register not referenced by the given
// instructions (and never RSP).
func pickScratch(insts ...isa.Inst) (isa.Reg, error) {
	candidates := []isa.Reg{isa.RBX, isa.RCX, isa.RDX, isa.RAX, isa.RSI, isa.RDI, isa.R8, isa.R9, isa.R10, isa.R11}
next:
	for _, r := range candidates {
		for _, in := range insts {
			if in.UsesReg(r) {
				continue next
			}
		}
		return r, nil
	}
	return isa.NoReg, fmt.Errorf("%w: no scratch register available", ErrUnpatchable)
}

// adjustRSP returns the operand with RSP-relative displacements shifted
// by delta, so a pattern that moved the stack pointer still addresses
// the original location.
func adjustRSP(op isa.Operand, delta int32) (isa.Operand, error) {
	if op.Kind != isa.KindMem || op.Mem.Base != isa.RSP {
		return op, nil
	}
	d := int64(op.Mem.Disp) + int64(delta)
	if d < math.MinInt32 || d > math.MaxInt32 {
		return op, fmt.Errorf("%w: rsp displacement overflow", ErrUnpatchable)
	}
	op.Mem.Disp = int32(d)
	return op, nil
}

// detectJcc builds the detection branch for a pattern: in StylePaper a
// taken je over a call-faulthandler (Table I shape), otherwise a
// normally-not-taken jne straight to the handler. It returns the
// instructions to append after the comparison.
func detectJcc(style Style, happyLabel string) []bir.Inst {
	if style == StylePaper {
		return []bir.Inst{
			protBranch(isa.NewJcc(isa.CondE, 0), happyLabel),
			callFaulthandler(),
		}
	}
	return []bir.Inst{
		protBranch(isa.NewJcc(isa.CondNE, 0), FaulthandlerLabel),
	}
}

// MovPattern builds the Table I protection for a mov-class site:
//
//	mov D, S            (original)
//	cmp D, S            (re-read and compare; duplicate read)
//	je  happyflow
//	call faulthandler
//
// For movzx/movsx/lea, where a direct cmp of D against S is not
// expressible, the comparison goes through a scratch register that
// recomputes the move (push/pop preserves the scratch around it).
// StyleOrder2 repeats the compare and its check, so skipping the mov
// plus either check still fails the other: each check's flags come
// from its own compare.
func MovPattern(p *bir.Program, site bir.Inst, happyLabel string, style Style) ([]*bir.Block, error) {
	in := site.I
	switch in.Op {
	case isa.MOV:
		return movPatternDirect(site, happyLabel, style)
	case isa.MOVZX, isa.MOVSX, isa.LEA:
		return movPatternScratch(site, happyLabel, style)
	default:
		return nil, fmt.Errorf("%w: %s is not a mov-class op", ErrUnpatchable, in.Op)
	}
}

// aliasesDst reports whether re-reading the source after the move would
// observe the move's own effect (e.g. mov rax, [rax+8]): such sites
// cannot be verified by duplicate reads.
func aliasesDst(in isa.Inst) bool {
	return in.Dst.Kind == isa.KindReg && in.Src.Kind == isa.KindMem && in.Src.UsesReg(in.Dst.Reg)
}

func movPatternDirect(site bir.Inst, happyLabel string, style Style) ([]*bir.Block, error) {
	in := site.I
	// cmp D, S must be encodable: reject imm64 sources (cmp r64, imm64
	// does not exist) — the paper's pattern applies to register/memory
	// moves and small immediates.
	if in.Src.Kind == isa.KindImm && (in.Src.Imm < math.MinInt32 || in.Src.Imm > math.MaxInt32) {
		return nil, fmt.Errorf("%w: mov with 64-bit immediate", ErrUnpatchable)
	}
	if aliasesDst(in) {
		return nil, fmt.Errorf("%w: destination aliases source address", ErrUnpatchable)
	}
	cmp := isa.NewInst(isa.CMP, in.Dst, in.Src)
	insts := []bir.Inst{{I: in, Protected: true, DataTarget: site.DataTarget, OrigAddr: site.OrigAddr}}
	for range style.checks() {
		insts = append(insts, protData(cmp, site.DataTarget))
		insts = append(insts, detectJcc(style, happyLabel)...)
	}
	return emit(style, &bir.Block{Insts: insts}), nil
}

// movPatternScratch protects movzx/movsx/lea: each check recomputes the
// move into a scratch register (reading S again) and compares.
func movPatternScratch(site bir.Inst, happyLabel string, style Style) ([]*bir.Block, error) {
	in := site.I
	if in.Dst.Kind != isa.KindReg {
		return nil, fmt.Errorf("%w: %s with non-register destination", ErrUnpatchable, in.Op)
	}
	if aliasesDst(in) || (in.Op == isa.LEA && in.Src.UsesReg(in.Dst.Reg)) {
		return nil, fmt.Errorf("%w: destination aliases source address", ErrUnpatchable)
	}
	scr, err := pickScratch(in)
	if err != nil {
		return nil, err
	}
	redo := in
	redo.Dst = isa.R(scr)
	if in.Op == isa.MOVZX || in.Op == isa.MOVSX {
		redo.Dst.Width = in.Dst.Width
		redo.Dst.Reg = scr
	}
	// The push moves RSP by -8; adjust any rsp-based source.
	if redo.Src, err = adjustRSP(redo.Src, 8); err != nil {
		return nil, err
	}
	dstFull := isa.R(in.Dst.Reg)
	dstFull.Width = in.Dst.Width
	scrOp := isa.R(scr)
	scrOp.Width = in.Dst.Width

	pop := prot(isa.NewInst(isa.POP, isa.R(scr))) // pop preserves flags
	insts := []bir.Inst{
		{I: in, Protected: true, DataTarget: site.DataTarget, OrigAddr: site.OrigAddr},
		prot(isa.NewInst(isa.PUSH, isa.R(scr))),
	}
	n := style.checks()
	for range n {
		insts = append(insts, protData(redo, site.DataTarget), prot(isa.NewInst(isa.CMP, dstFull, scrOp)))
		if n == 1 {
			// A single check restores the scratch before branching, so
			// StylePaper's je lands in the happy flow with the stack
			// balanced.
			insts = append(insts, pop)
		}
		insts = append(insts, detectJcc(style, happyLabel)...)
	}
	if n > 1 {
		insts = append(insts, pop)
	}
	return emit(style, &bir.Block{Insts: insts}), nil
}

// CmpPattern builds the Table II protection for cmp/test sites: execute
// the comparison twice, push both RFLAGS snapshots, and verify they
// agree before restoring the original flags.
//
//	lea rsp, [rsp-128]     ; step over the red zone
//	cmp X, Y               ; first comparison   (rsp delta -128)
//	push SCR
//	pushfq                 ; flags #1
//	cmp X, Y               ; second comparison  (rsp delta -144)
//	pushfq                 ; flags #2
//	pop SCR                ; SCR = flags #2
//	cmp SCR, [rsp]         ; compare against flags #1
//	je restore
//	call faulthandler
//	restore:
//	popfq                  ; restore flags #1 for the real consumer
//	pop SCR
//	lea rsp, [rsp+128]
//
// The other styles branch to the handler on a mismatch and end with an
// authoritative compare at the original stack depth. StyleOrder2
// repeats the compare-and-verify against flags #1 and the authoritative
// compare, so skipping the popfq together with one final compare still
// hands the consumer correctly derived flags.
func CmpPattern(p *bir.Program, site bir.Inst, happyLabel string, style Style) ([]*bir.Block, error) {
	in := site.I
	if in.Op != isa.CMP && in.Op != isa.TEST {
		return nil, fmt.Errorf("%w: %s is not a compare", ErrUnpatchable, in.Op)
	}
	scr, err := pickScratch(in)
	if err != nil {
		return nil, err
	}

	adjusted := func(delta int32) (isa.Inst, error) {
		c := in
		d, err := adjustRSP(c.Dst, delta)
		if err != nil {
			return c, err
		}
		s, err := adjustRSP(c.Src, delta)
		if err != nil {
			return c, err
		}
		c.Dst, c.Src = d, s
		return c, nil
	}
	cmp1, err := adjusted(redZone)
	if err != nil {
		return nil, err
	}
	cmpN, err := adjusted(redZone + 16) // after push SCR + pushfq
	if err != nil {
		return nil, err
	}

	// Flags flow to the fall-through consumer implicitly; StylePaper's
	// je targets the restore block instead of happyLabel.
	restoreLabel := ""
	if style == StylePaper {
		restoreLabel = p.NewLabel("restore")
	}
	insts := []bir.Inst{
		prot(isa.NewInst(isa.LEA, isa.R(isa.RSP), isa.M(isa.RSP, -redZone))),
		protData(cmp1, site.DataTarget),
		prot(isa.NewInst(isa.PUSH, isa.R(scr))),
		prot(isa.NewInst(isa.PUSHFQ)),
	}
	for range style.checks() {
		insts = append(insts,
			protData(cmpN, site.DataTarget),
			prot(isa.NewInst(isa.PUSHFQ)),
			prot(isa.NewInst(isa.POP, isa.R(scr))),
			prot(isa.NewInst(isa.CMP, isa.R(scr), isa.M(isa.RSP, 0))),
		)
		insts = append(insts, detectJcc(style, restoreLabel)...)
	}
	restore := []bir.Inst{
		prot(isa.NewInst(isa.POPFQ)),
		prot(isa.NewInst(isa.POP, isa.R(scr))),
		prot(isa.NewInst(isa.LEA, isa.R(isa.RSP), isa.M(isa.RSP, redZone))),
	}
	if style == StylePaper {
		return emit(style, &bir.Block{Insts: insts}, &bir.Block{Label: restoreLabel, Insts: restore}), nil
	}
	insts = append(insts, restore...)
	// Authoritative final evaluation at the original stack depth: the
	// flags the consumer sees never depend on popfq executing, so
	// skipping the restore cannot smuggle the verify-compare's
	// "equal" state into the protected branch (it would otherwise be a
	// fresh instruction-skip vulnerability — found by the faulter when
	// iterating on this very pattern).
	for range style.checks() {
		insts = append(insts, protData(in, site.DataTarget))
	}
	return emit(style, &bir.Block{Insts: insts}), nil
}

// JccPattern builds the Table III protection for conditional jumps:
// both outcomes of the branch re-verify the condition via SETcc before
// committing, and each side re-executes the branch as a second check.
// StyleOrder2 verifies twice per side, reloading the saved original
// flags between the checks (the first check's compare clobbers them).
//
// Two deviations from the table as printed (documented in
// docs/COUNTERMEASURES.md):
// the rsp red-zone adjustment is restored with lea rsp,[rsp+128] on both
// paths (the printed pattern leaks 128 bytes of stack), and the
// fall-through side re-checks with the *inverted* condition (as printed,
// the fall-through path would always reach the fault handler).
func JccPattern(p *bir.Program, site bir.Inst, fallLabel string, style Style) ([]*bir.Block, error) {
	in := site.I
	if in.Op != isa.JCC {
		return nil, fmt.Errorf("%w: %s is not a conditional jump", ErrUnpatchable, in.Op)
	}
	cond := in.Cond
	target := site.TargetLabel

	// Labels become ELF symbols: the single-check styles draw Table
	// III's three names before the fall-through side's, StyleOrder2
	// only the latter.
	var njt, nftj, njtj string
	if style.checks() == 1 {
		njt = p.NewLabel("newjumptarget")
		nftj = p.NewLabel("newfallthroughjmp")
		njtj = p.NewLabel("newjumptargetjmp")
	}
	nft := p.NewLabel("newfallthrough")

	verify := func(expect int64, okLabel string) []bir.Inst {
		insts := []bir.Inst{
			prot(isa.NewInst(isa.LEA, isa.R(isa.RSP), isa.M(isa.RSP, -redZone))),
			prot(isa.NewInst(isa.PUSH, isa.R(isa.RCX))),
			prot(isa.NewInst(isa.PUSHFQ)),
		}
		for k := range style.checks() {
			if k > 0 { // reload the original flags
				insts = append(insts, prot(isa.NewInst(isa.POPFQ)), prot(isa.NewInst(isa.PUSHFQ)))
			}
			insts = append(insts,
				prot(isa.NewSetcc(cond, isa.RCX)),
				prot(isa.NewInst(isa.CMP, isa.Rb(isa.RCX), isa.Imm8(expect))),
			)
			insts = append(insts, detectJcc(style, okLabel)...)
		}
		return insts
	}
	unwind := func(tail ...bir.Inst) []bir.Inst {
		return append([]bir.Inst{
			prot(isa.NewInst(isa.POPFQ)),
			prot(isa.NewInst(isa.POP, isa.R(isa.RCX))),
			prot(isa.NewInst(isa.LEA, isa.R(isa.RSP), isa.M(isa.RSP, redZone))),
		}, tail...)
	}

	if style == StylePaper {
		head := &bir.Block{Insts: []bir.Inst{
			protBranch(isa.NewJcc(cond, 0), njt),
		}}
		// Fall-through side: cond evaluated false. Every block becomes
		// an ELF symbol, so this one needs a label of its own even
		// though nothing branches to it: two unnamed ones collide.
		ftCheck := &bir.Block{Label: nft, Insts: verify(0, nftj)}
		ftCommit := &bir.Block{Label: nftj, Insts: unwind(
			protBranch(isa.NewJcc(cond.Inverse(), 0), fallLabel),
			callFaulthandler(),
		)}
		// Jump-target side: cond evaluated true.
		jtCheck := &bir.Block{Label: njt, Insts: verify(1, njtj)}
		jtCommit := &bir.Block{Label: njtj, Insts: unwind(
			protBranch(isa.NewJcc(cond, 0), target),
			callFaulthandler(),
		)}
		return emit(style, head, ftCheck, ftCommit, jtCheck, jtCommit), nil
	}
	// Inverted head: the not-taken direction of the head branch is the
	// taken direction of the original jump, so the verified jump-target
	// side falls through from the head. Every detection branch targets
	// the fault handler and is not taken in a correct run; the only
	// live displacement left is the re-executed original branch.
	jtSide := &bir.Block{Insts: append(append([]bir.Inst{
		protBranch(isa.NewJcc(cond.Inverse(), 0), nft),
	}, verify(1, njtj)...), unwind(
		protBranch(isa.NewJcc(cond, 0), target),
		callFaulthandler(),
	)...)}
	// Fall-through side: verify cond false, re-check, and fall through
	// into the original successor (the driver places the continuation
	// directly after this block).
	ftSide := &bir.Block{Label: nft, Insts: append(verify(0, nftj), unwind(
		protBranch(isa.NewJcc(cond, 0), FaulthandlerLabel),
	)...)}
	return emit(style, jtSide, ftSide), nil
}

// AluPattern duplicates a destructive ALU instruction (the general
// instruction-duplication scheme the paper's §V-C costs at >= 300%):
// the operation is computed twice into a scratch register, the two
// results are compared, and only then is the real destination updated —
// as the last instruction, so consumers of the operation's flags and
// result see exactly the original semantics.
//
//	push SCR
//	mov  SCR, D            ; (rsp-relative operands adjusted)
//	op   SCR, S            ; expected result
//	push SCR
//	mov  SCR, D
//	op   SCR, S            ; recomputed result
//	cmp  SCR, [rsp]
//	jne  faulthandler      ; (je over call faulthandler in StylePaper;
//	                       ;  StyleOrder2 repeats the cmp and jne)
//	lea  rsp, [rsp+8]
//	pop  SCR
//	op   D, S              ; authoritative update: value and flags
//
// Carry-consuming ops (adc/sbb) are rejected — the verification compare
// would corrupt their input flag — and so are narrow destinations,
// which would need masked comparisons.
func AluPattern(p *bir.Program, site bir.Inst, happyLabel string, style Style) ([]*bir.Block, error) {
	in := site.I
	switch in.Op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.INC, isa.DEC, isa.NOT, isa.NEG,
		isa.SHL, isa.SHR, isa.SAR, isa.IMUL:
		// supported
	default:
		return nil, fmt.Errorf("%w: %s is not a duplicable ALU op", ErrUnpatchable, in.Op)
	}
	if in.Dst.Kind == isa.KindReg && in.Dst.Width != 8 || in.Dst.Kind == isa.KindMem && in.Dst.Width != 8 {
		return nil, fmt.Errorf("%w: %d-byte ALU destination", ErrUnpatchable, in.Dst.Width)
	}
	scr, err := pickScratch(in)
	if err != nil {
		return nil, err
	}

	// compute rebuilds the op with D replaced by the scratch register
	// and rsp-relative displacements shifted by delta.
	compute := func(delta int32) ([]bir.Inst, error) {
		d, err := adjustRSP(in.Dst, delta)
		if err != nil {
			return nil, err
		}
		s, err := adjustRSP(in.Src, delta)
		if err != nil {
			return nil, err
		}
		op := in
		op.Dst, op.Src = isa.R(scr), s
		return []bir.Inst{protData(isa.NewInst(isa.MOV, isa.R(scr), d), site.DataTarget), protData(op, site.DataTarget)}, nil
	}
	expected, err := compute(8) // after one push
	if err != nil {
		return nil, err
	}
	recomputed, err := compute(16) // after two
	if err != nil {
		return nil, err
	}
	push := prot(isa.NewInst(isa.PUSH, isa.R(scr)))
	insts := append(append(append([]bir.Inst{push}, expected...), push), recomputed...)
	okLabel := ""
	if style == StylePaper {
		okLabel = p.NewLabel("alu_ok")
	}
	for range style.checks() {
		insts = append(insts, prot(isa.NewInst(isa.CMP, isa.R(scr), isa.M(isa.RSP, 0))))
		insts = append(insts, detectJcc(style, okLabel)...)
	}
	tail := []bir.Inst{
		prot(isa.NewInst(isa.LEA, isa.R(isa.RSP), isa.M(isa.RSP, 8))),
		prot(isa.NewInst(isa.POP, isa.R(scr))),
		{I: in, Protected: true, DataTarget: site.DataTarget, OrigAddr: site.OrigAddr},
	}
	_ = happyLabel // flags and result flow to the fall-through consumer
	if style == StylePaper {
		return emit(style, &bir.Block{Insts: insts}, &bir.Block{Label: okLabel, Insts: tail}), nil
	}
	return emit(style, &bir.Block{Insts: append(insts, tail...)}), nil
}

// PatternFor dispatches on the site's op class.
func PatternFor(p *bir.Program, site bir.Inst, followLabel string, style Style) ([]*bir.Block, error) {
	switch site.I.Op {
	case isa.MOV, isa.MOVZX, isa.MOVSX, isa.LEA:
		return MovPattern(p, site, followLabel, style)
	case isa.CMP, isa.TEST:
		return CmpPattern(p, site, followLabel, style)
	case isa.JCC:
		return JccPattern(p, site, followLabel, style)
	default:
		if blocks, err := AluPattern(p, site, followLabel, style); err == nil {
			return blocks, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrUnpatchable, site.I.Mnemonic())
	}
}
