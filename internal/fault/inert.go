// StaticInert: the multi-fault tree's static shortcut. A skip-model
// first fault whose window provably writes nothing leaves the machine
// on the reference trajectory, so every sequence of its group runs like
// its continuation alone and inherits the continuation's known
// lower-order outcome with no simulation at all.
//
// Soundness argument (enforced end to end by the campaign package's
// pruned-vs-exhaustive differential harness):
//
//   - The window must be trace-contiguous: the reference run fell
//     through every skipped instruction, so the skipped machine visits
//     the same addresses (a skip advances RIP by the encoding length,
//     and skips still count as steps, so all step-keyed hooks stay
//     aligned).
//   - Every instruction in the window is transparent (static.Transparent:
//     it writes no register, flag or memory component), so skipping it
//     is a no-op given fall-through: the machine at the effect horizon
//     is bit-identical to the reference run's, and the remaining faults
//     compose exactly as if injected alone.
//
// The screen requires the reference run to have left code unmutated
// (generation zero): the window instructions, read from the session's
// whole-image program, then describe the bytes the run executed. A
// session without a program (an executable span beyond 1 MiB), or a
// window instruction off the program's linear sweep, does without the
// screen.
package fault

import "github.com/r2r/reinforce/internal/static"

// transparentFirst reports whether a multi-fault group's first fault
// is a skip whose window — the steps its hook suppresses — is fully
// transparent: code generation zero, the whole window plus its
// continuation inside the trace, every step trace-contiguous (the
// reference fell through), and every instruction transparent.
func (s *Session) transparentFirst(g *group) bool {
	if !s.pristine || s.prog == nil {
		return false
	}
	if m := g.first.Model; m != ModelSkip && m != ModelMultiSkip {
		return false
	}
	lo, hi := g.cfg.HookWindow()
	entries := s.trace.Entries
	if lo >= hi || hi >= uint64(len(entries)) {
		return false
	}
	for k := lo; k < hi; k++ {
		in := s.prog.Lookup(entries[k].Addr)
		if in == nil || !static.Transparent(*in) || entries[k+1].Addr != in.Addr+uint64(in.EncLen) {
			return false
		}
	}
	return true
}
