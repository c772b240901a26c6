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

// skipWindowOf returns the number of consecutive trace steps a
// skip-model fault suppresses, mirroring each spec's EffectEnd.
func skipWindowOf(f Fault) (int, bool) {
	switch f.Model {
	case ModelSkip:
		return 1, true
	case ModelMultiSkip:
		return f.Window, true
	}
	return 0, false
}

// transparentFirst reports whether a multi-fault group's first fault
// has a fully transparent window: code generation zero, the whole
// window plus its continuation inside the trace, every step
// trace-contiguous (the reference fell through), and every instruction
// transparent.
func (s *Session) transparentFirst(f Fault) bool {
	if !s.pristine || s.prog == nil {
		return false
	}
	w, ok := skipWindowOf(f)
	if !ok || w <= 0 {
		return false
	}
	entries := s.trace.Entries
	i := f.TraceIndex
	if i < 0 || i+w >= len(entries) {
		return false
	}
	for k := i; k < i+w; k++ {
		in := s.prog.Lookup(entries[k].Addr)
		if in == nil || !static.Transparent(*in) || entries[k+1].Addr != in.Addr+uint64(in.EncLen) {
			return false
		}
	}
	return true
}
