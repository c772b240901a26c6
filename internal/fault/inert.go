// StaticInert: the third static pruning tier, backed by the static
// package's dataflow engine. A skip-model fault whose window provably
// cannot change the run's observable behaviour is answered with the
// reference run's own outcome, with no simulation at all.
//
// Soundness argument (enforced end to end by the campaign package's
// pruned-vs-exhaustive differential harness):
//
//   - The window must be trace-contiguous: the reference run fell
//     through every skipped instruction, so the skipped machine visits
//     the same addresses (a skip advances RIP by the encoding length,
//     and skips still count as steps, so all step-keyed hooks stay
//     aligned).
//   - Every instruction in the window is either transparent (writes no
//     register, flag or memory component — skipping it is a no-op given
//     fall-through) or side-effect-free with all written components
//     proven dead at the continuation address by the liveness analysis
//     (the continuation never reads them before overwriting them, so it
//     computes the same stores, syscalls, branches and exit).
//   - Either way the faulted run's observables equal the un-faulted
//     run's under the same injection step budget, so the outcome is the
//     reference outcome — computed once per session under exactly that
//     budget, never assumed.
//
// The dead-output tier is only sound for solo faults: a second fault
// could steer execution onto a path the liveness fixpoint never
// considered live, resurrecting a "dead" component. Multi-fault fast
// paths therefore require a fully transparent window (nothing written),
// where the machine is bit-identical to the reference trajectory and
// the remaining faults compose exactly as if injected alone.
//
// All tiers require the reference run to have left code unmutated
// (generation zero): the decoded window instructions and the whole-
// binary liveness facts describe load-time bytes.
package fault

import (
	"sync"

	"github.com/r2r/reinforce/internal/isa"
	"github.com/r2r/reinforce/internal/static"
)

// inertState is the Session's lazily materialized static-classification
// state. The reference outcome and the whole-binary analysis are only
// paid for when a campaign actually prunes with them.
type inertState struct {
	// insts is a private copy of the reference run's decoded
	// instructions by address, valid only at code generation zero (nil
	// otherwise, which disables every screen).
	insts map[uint64]isa.Inst

	refOnce sync.Once
	ref     Outcome

	anOnce sync.Once
	an     *static.Analysis
}

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

// inertWindow inspects a skip-model fault's window over the reference
// trace and reports whether it is eligible for static classification:
// code generation zero, the whole window plus its continuation inside
// the trace, every step trace-contiguous (the reference fell through),
// and every instruction either transparent or side-effect-free. It
// returns the union of components the window writes (zero means fully
// transparent) and the continuation address.
func (s *Session) inertWindow(f Fault) (writes static.LiveSet, cont uint64, ok bool) {
	if s.inert.insts == nil {
		return 0, 0, false
	}
	w, ok := skipWindowOf(f)
	if !ok || w <= 0 {
		return 0, 0, false
	}
	entries := s.trace.Entries
	i := f.TraceIndex
	if i < 0 || i+w >= len(entries) {
		return 0, 0, false
	}
	for k := i; k < i+w; k++ {
		in, known := s.inert.insts[entries[k].Addr]
		if !known {
			return 0, 0, false
		}
		if entries[k+1].Addr != in.Addr+uint64(in.EncLen) {
			return 0, 0, false // the reference did not fall through
		}
		if static.Transparent(in) {
			continue
		}
		wr, eligible := static.SkippableWrites(in)
		if !eligible {
			return 0, 0, false
		}
		writes |= wr
	}
	return writes, entries[i+w].Addr, true
}

// refOutcome classifies the un-faulted reference run under the
// injection step budget (which can differ from the budget the trace
// was recorded under — a smaller budget turns the same run into a
// step-limit crash, so this is computed, never assumed). Memoized per
// session; safe for concurrent use.
func (s *Session) refOutcome() Outcome {
	s.inert.refOnce.Do(func() {
		m := s.checkpointFor(0).Resume(s.config())
		res, err := m.Run()
		s.inert.ref = classify(res, err, s.good)
		m.Release()
	})
	return s.inert.ref
}

// staticAnalysis lazily builds the whole-binary dataflow analysis the
// dead-output tier needs, once per session. Nil when the binary cannot
// be analyzed (the screen then never fires). Safe for concurrent use.
func (s *Session) staticAnalysis() *static.Analysis {
	s.inert.anOnce.Do(func() {
		if an, err := static.Analyze(s.c.Binary); err == nil {
			s.inert.an = an
		}
	})
	return s.inert.an
}

// inertOutcome answers a solo skip-model fault statically when its
// window is provably inert, per the tiers in the package comment.
func (s *Session) inertOutcome(f Fault) (Outcome, bool) {
	writes, cont, ok := s.inertWindow(f)
	if !ok {
		return 0, false
	}
	if writes != 0 {
		an := s.staticAnalysis()
		if an == nil || !an.OutputsDead(writes, cont) {
			return 0, false
		}
	}
	return s.refOutcome(), true
}

// transparentFirst reports whether a multi-fault group's first fault
// has a fully transparent window: the faulted machine is bit-identical
// to the reference trajectory from the effect horizon on, so the
// group's remaining faults compose exactly as if injected alone.
func (s *Session) transparentFirst(f Fault) bool {
	writes, _, ok := s.inertWindow(f)
	return ok && writes == 0
}
