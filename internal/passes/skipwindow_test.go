package passes

import (
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/ir"
)

func TestSkipWindowHardenPreservesBehaviour(t *testing.T) {
	res := liftSrc(t, pincheckSrc)
	before := behaviours(t, res, pinInputs)
	if err := Run(res.Module, SkipWindowHarden{}); err != nil {
		t.Fatal(err)
	}
	after := behaviours(t, res, pinInputs)
	sameBehaviour(t, "skip-window", before, after)
	for _, r := range after {
		if r.Faulted {
			t.Error("fault response fired without a fault")
		}
	}
}

func TestSkipWindowHardenStructure(t *testing.T) {
	res := liftSrc(t, pincheckSrc)
	f := res.Module.Func("_start")
	blocksBefore := len(f.Blocks)

	var stats SkipWindowStats
	if err := Run(res.Module, SkipWindowHarden{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.BlocksInstrumented == 0 {
		t.Fatal("no blocks instrumented")
	}
	// Every instrumented block adds a chk2, a continuation, and a
	// fault-response block.
	if got, want := len(f.Blocks)-blocksBefore, 3*stats.BlocksInstrumented; got != want {
		t.Errorf("blocks added = %d, want %d (3 per instrumented block)", got, want)
	}
	if stats.Duplicated == 0 {
		t.Error("no computations duplicated")
	}
	if stats.Increments < stats.Duplicated {
		t.Errorf("increments = %d < duplicated = %d: counter not interleaved",
			stats.Increments, stats.Duplicated)
	}
	for _, cell := range []string{CellStepCtr, CellSWOk, CellSWCond} {
		if _, ok := res.Module.CellType(cell); !ok {
			t.Errorf("cell %q not registered", cell)
		}
	}
	s := res.Module.String()
	for _, want := range []string{"cellwrite @sw.ctr", "cellread i64 @sw.ctr", "cellwrite @sw.ok", "cellread i1 @sw.ok", "faultresp"} {
		if !strings.Contains(s, want) {
			t.Errorf("module missing %q", want)
		}
	}
}

// TestSkipWindowSpacing checks the pass's defining property: a clone
// never sits within DefaultSkipWindow instructions of its original.
func TestSkipWindowSpacing(t *testing.T) {
	const window = DefaultSkipWindow
	res := liftSrc(t, pincheckSrc)
	if err := Run(res.Module, SkipWindowHarden{}); err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Module.Funcs {
		for _, b := range f.Blocks {
			pos := map[*ir.Instr]int{}
			for i, in := range b.Insts {
				pos[in] = i
			}
			for i, in := range b.Insts {
				// A clone is an ICmp EQ whose two args are distinct
				// instructions with identical op/shape (the agree check
				// compares original against clone, clone at i-1).
				if in.Op != ir.OpICmp || in.Pred != ir.EQ || len(in.Args) != 2 {
					continue
				}
				origV, ok1 := in.Args[0].(*ir.Instr)
				cloneV, ok2 := in.Args[1].(*ir.Instr)
				if !ok1 || !ok2 || pos[cloneV] != i-1 || origV.Op != cloneV.Op {
					continue
				}
				if d := pos[cloneV] - pos[origV]; d <= window {
					t.Errorf("%s:%s: clone of inst %d at %d — distance %d <= window %d",
						f.Name, b.Name, pos[origV], pos[cloneV], d, window)
				}
			}
		}
	}
}

// TestSkipWindowDetectsCounterCorruption simulates a sustained glitch:
// a step-counter increment is deleted (as a multi-instruction skip
// would), and the block's count check must divert to the fault
// response.
func TestSkipWindowDetectsCounterCorruption(t *testing.T) {
	res := liftSrc(t, pincheckSrc)
	if err := Run(res.Module, SkipWindowHarden{}); err != nil {
		t.Fatal(err)
	}
	// Delete one increment triple (cellread ctr; add; cellwrite ctr)
	// from the entry block.
	f := res.Module.Func("_start")
	entry := f.Entry()
	removed := false
	for i := 0; i+2 < len(entry.Insts); i++ {
		a, b, c := entry.Insts[i], entry.Insts[i+1], entry.Insts[i+2]
		if a.Op == ir.OpCellRead && a.Cell == CellStepCtr &&
			b.Op == ir.OpBin && b.Bin == ir.Add &&
			c.Op == ir.OpCellWrite && c.Cell == CellStepCtr {
			entry.Insts = append(entry.Insts[:i], entry.Insts[i+3:]...)
			removed = true
			break
		}
	}
	if !removed {
		t.Fatal("no increment triple found in entry block")
	}
	if err := ir.Verify(res.Module); err != nil {
		t.Fatal(err)
	}
	r, err := ir.Exec(res.Module, ir.ExecConfig{Stdin: []byte("00000000"), Sections: res.Data})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Faulted || r.ExitCode != 42 {
		t.Errorf("deleted increment not detected: %+v", r)
	}
}

// TestSkipWindowDetectsDuplicationMismatch corrupts a duplicated
// computation's result cell-style (flip the parked validation bit's
// source by deleting a clone) and expects detection via the agreement
// chain.
func TestSkipWindowDetectsParkedBitMismatch(t *testing.T) {
	res := liftSrc(t, pincheckSrc)
	if err := Run(res.Module, SkipWindowHarden{}); err != nil {
		t.Fatal(err)
	}
	// Overwrite the parked sw.ok bit with constant false right after it
	// is written in the entry block: the second-stage check must fire
	// even though the first branch saw the true value... and vice versa.
	// Here we corrupt the *cell*, so stage 2 diverts.
	f := res.Module.Func("_start")
	entry := f.Entry()
	for i, in := range entry.Insts {
		if in.Op == ir.OpCellWrite && in.Cell == CellSWOk {
			wr := &ir.Instr{Op: ir.OpCellWrite, Ty: ir.Void, Cell: CellSWOk, Args: []ir.Value{ir.C1(false)}}
			ir.InsertBefore(entry, i+1, []*ir.Instr{wr})
			break
		}
	}
	if err := ir.Verify(res.Module); err != nil {
		t.Fatal(err)
	}
	r, err := ir.Exec(res.Module, ir.ExecConfig{Stdin: []byte("00000000"), Sections: res.Data})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Faulted || r.ExitCode != 42 {
		t.Errorf("corrupted parked bit not detected: %+v", r)
	}
}

func TestSkipWindowAfterBranchHarden(t *testing.T) {
	// The order-2 Hybrid pipeline: branch hardening, then skip-window
	// hardening, then countermeasure-safe cleanup.
	res := liftSrc(t, pincheckSrc)
	before := behaviours(t, res, pinInputs)
	ps := append([]Pass{BranchHarden{}, SkipWindowHarden{}}, PostHardenCleanup()...)
	if err := Run(res.Module, ps...); err != nil {
		t.Fatal(err)
	}
	sameBehaviour(t, "branch+skip-window", before, behaviours(t, res, pinInputs))
	s := res.Module.String()
	if !strings.Contains(s, "@chk.d1") || !strings.Contains(s, "@sw.ctr") {
		t.Error("cleanup removed a countermeasure")
	}
}

func TestSkipWindowLoopedProgram(t *testing.T) {
	src := `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 8
	syscall
	xor rax, rax
	mov rcx, 8
	lea rbx, [rip+buf]
sum:
	movzx rdx, byte ptr [rbx]
	add rax, rdx
	inc rbx
	dec rcx
	jne sum
	cmp rax, 520
	jne deny
	mov rdi, 0
	mov rax, 60
	syscall
deny:
	mov rdi, 1
	mov rax, 60
	syscall
.bss
buf: .zero 8
`
	res := liftSrc(t, src)
	inputs := [][]byte{
		{65, 65, 65, 65, 65, 65, 65, 65},
		{1, 2, 3, 4, 5, 6, 7, 8},
	}
	before := behaviours(t, res, inputs)
	ps := append([]Pass{SkipWindowHarden{}}, PostHardenCleanup()...)
	if err := Run(res.Module, ps...); err != nil {
		t.Fatal(err)
	}
	sameBehaviour(t, "skip-window loop", before, behaviours(t, res, inputs))
}
