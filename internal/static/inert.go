package static

import "github.com/r2r/reinforce/internal/isa"

// Transparent reports whether skipping in cannot change machine state:
// the instruction writes no register, flag, or memory component. NOP
// trivially; JMP and JCC qualify because a skip falls through — the
// caller must separately check that the reference trace fell through
// too (trace contiguity), which makes the skipped path identical. The
// multi-fault pruner uses it to let a group whose first fault skips
// only transparent instructions inherit its continuations' lower-order
// outcomes: the residual faults run against an unchanged machine.
func Transparent(in isa.Inst) bool {
	switch in.Op {
	case isa.NOP, isa.JMP, isa.JCC:
		return true
	}
	return false
}
