package fault

import (
	"sort"
	"sync"

	"github.com/r2r/reinforce/internal/emu"
)

// Checkpoint ladder: the fixed-interval checkpoints of runReference
// keep prefix replay cheap for short traces, but once the interval
// doubles past maxCheckpoints the gap between a fault site and its
// nearest checkpoint grows linearly with trace length. The ladder
// densifies on demand: when an injection must replay more than
// ladderMinGap steps of prefix, the replay is split at the midpoint,
// a snapshot is taken there and kept for the whole campaign, and the
// search repeats on the remaining half. Every rung lies on the
// reference trajectory (rungs are built by replaying hook-free from an
// existing rung), so any injection may resume from any rung at or
// before its fault step. Reaching a step then costs O(log gap) replay
// work amortized across the campaign instead of O(gap) per injection.
const (
	ladderMinGap   = 512  // gaps at or below this are replayed directly
	maxLadderRungs = 1024 // memory bound; beyond it the ladder stops growing
)

// ladder is a concurrently growable set of reference-trajectory
// snapshots, ascending by step.
type ladder struct {
	mu    sync.RWMutex
	rungs []*emu.Snapshot
}

// newLadder seeds the ladder with the reference run's checkpoints
// (ascending by step; rungs[0] is the entry state).
func newLadder(ckpts []*emu.Snapshot) *ladder {
	return &ladder{rungs: append([]*emu.Snapshot(nil), ckpts...)}
}

// nearest returns the latest rung taken at or before step.
func (l *ladder) nearest(step uint64) *emu.Snapshot {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i := sort.Search(len(l.rungs), func(i int) bool {
		return l.rungs[i].Steps() > step
	})
	return l.rungs[i-1]
}

// insert adds a rung, keeping the slice sorted; a rung at an already
// occupied step is dropped (concurrent workers bisect the same gap).
// Returns false when the ladder is full.
func (l *ladder) insert(snap *emu.Snapshot) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.rungs) >= maxLadderRungs {
		return false
	}
	i := sort.Search(len(l.rungs), func(i int) bool {
		return l.rungs[i].Steps() >= snap.Steps()
	})
	if i < len(l.rungs) && l.rungs[i].Steps() == snap.Steps() {
		return true
	}
	l.rungs = append(l.rungs, nil)
	copy(l.rungs[i+1:], l.rungs[i:])
	l.rungs[i] = snap
	return true
}

// full reports whether the ladder stopped growing.
func (l *ladder) full() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.rungs) >= maxLadderRungs
}

// rungFor returns a reference-trajectory snapshot at or before step,
// bisecting oversized gaps with new rungs as it goes. The step is
// capped at the injection budget so a resumed machine can never start
// beyond its own StepLimit (which would change how budget-cut runs
// report their step counts).
//
// Rung positions depend on which injections ran first, so callers must
// not derive deterministic outputs from the returned snapshot's step —
// only from the trajectory itself, which every rung shares.
func (s *Session) rungFor(step uint64) *emu.Snapshot {
	target := step
	if lim := s.c.InjectionStepLimit; lim > 0 && target > lim-1 {
		target = lim - 1
	}
	for {
		ck := s.ladder.nearest(target)
		gap := target - ck.Steps()
		if gap <= ladderMinGap || s.ladder.full() {
			return ck
		}
		mid := ck.Steps() + (gap+1)/2
		// Pristine hook-free replay: the new rung lies on the reference
		// trajectory, exactly like runReference's own checkpoints.
		m := ck.Resume(emu.Config{StepLimit: s.c.StepLimit, SingleStep: s.c.SingleStep})
		if _, _, err := m.RunUntil(mid); err != nil || m.Exited || m.Steps < mid {
			// The reference trajectory ends before mid (it cannot for a
			// trace index, but stay defensive): the current rung is the
			// best resumable state.
			m.Release()
			return ck
		}
		snap := m.Snapshot()
		snap.SeedProgram(s.prog)
		s.ladder.insert(snap)
		// The donor froze into the snapshot; Release is a no-op for it.
	}
}
