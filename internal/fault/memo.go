// Continuation memo: faulted runs that reach the same complete machine
// state at the same absolute step share one tail. Most of a sweep's
// emulated steps are spent in runs that hang until the injection step
// limit, and those are mostly loop counters with a flipped bit — flip
// the same bit at different iterations and the runs meet in the same
// state a few hundred steps later. Each faulted run that got past its
// hooks' windows is digested on a sparse grid; the first run to finish
// from a digested state publishes its outcome, and every later run
// reaching that state stops there and inherits it.
//
// Soundness is the pair pruner's reference-inheritance argument: equal
// complete state (emu.Machine.StateDigest, which includes the step
// counter) under the same injection step limit with no hook left to act
// is the same future, so the outcome is the same. Which run reaches a state first
// depends on scheduling, so memo hits are counted nowhere a report,
// plan key, store entry or PruneStats could see.
package fault

import (
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/emu"
)

// memoCap bounds the continuation memo's entries per session (about
// 64 bytes each). A full memo stops inserting, which only loses reuse.
const memoCap = 1 << 15

// memoFloor is the earliest step a run is digested at. The grid also
// starts no earlier than the longer golden run: before that, faulted
// runs are mostly still on their way to a normal exit, and digesting
// them would cost private-page hashing for few hits.
const memoFloor = 256

// tailMemo is a session's continuation memo: state digest to the
// outcome of the run that continued from that state.
type tailMemo struct {
	// from is the first digest step; runs are digested at from·2^k.
	from uint64
	// cap is memoCap; tests lower it.
	cap int

	mu       sync.Mutex
	outcomes map[[32]byte]Outcome

	// hits counts runs answered from the memo, for tests only.
	hits atomic.Int64
}

// newTailMemo builds the memo of a session whose longer golden run took
// golden steps: the grid starts at the smallest power of two at or
// above both memoFloor and golden.
func newTailMemo(golden uint64) *tailMemo {
	from := uint64(memoFloor)
	for from < golden {
		from <<= 1
	}
	return &tailMemo{from: from, cap: memoCap, outcomes: make(map[[32]byte]Outcome)}
}

// lookup returns the outcome published under a state digest.
func (t *tailMemo) lookup(d [32]byte) (Outcome, bool) {
	t.mu.Lock()
	o, ok := t.outcomes[d]
	t.mu.Unlock()
	if ok {
		t.hits.Add(1)
	}
	return o, ok
}

// publish records a finished run's outcome under every digest it took,
// while the memo has room.
func (t *tailMemo) publish(keys [][32]byte, o Outcome) {
	if len(keys) == 0 {
		return
	}
	t.mu.Lock()
	for _, d := range keys {
		if len(t.outcomes) >= t.cap {
			break
		}
		t.outcomes[d] = o
	}
	t.mu.Unlock()
}

// finish runs a faulted machine to its end, classifies the outcome and
// releases the machine: the one run-to-completion core of SimulateSeq
// and of the continuations the snapshot tree forks. Once no hook can
// act any more, the run is digested at the memo's grid steps; a digest
// the memo knows answers at once, and the finished run publishes its
// outcome under every digest it took. A machine with a windowless hook
// never touches the memo.
func (s *Session) finish(m *emu.Machine) Outcome {
	var keys [][32]byte
	if inert, ok := m.HooksInertAt(); ok {
		// at != 0 stops the doubling from wrapping under a step limit
		// near 2^64.
		for at := s.memo.from; at < m.StepLimit && at != 0; at <<= 1 {
			if at < inert {
				continue
			}
			res, done, err := m.RunUntil(at)
			if done {
				return s.settle(m, keys, classify(res, err, s.good))
			}
			d := m.StateDigest()
			if o, hit := s.memo.lookup(d); hit {
				return s.settle(m, keys, o)
			}
			keys = append(keys, d)
		}
	}
	res, err := m.Run()
	return s.settle(m, keys, classify(res, err, s.good))
}

// settle publishes a run's outcome under its digests and releases the
// machine.
func (s *Session) settle(m *emu.Machine, keys [][32]byte, o Outcome) Outcome {
	s.memo.publish(keys, o)
	m.Release()
	return o
}
