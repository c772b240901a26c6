// Fault-equivalence pruning: sound reductions that classify injections
// without simulating them, while keeping every report bit-identical to
// the exhaustive sweep (the contract the campaign package's
// differential harness enforces case by case). ARMORY observes that
// exhaustive fault simulation only scales with exactly this kind of
// pruning. Three screens run, each answering faults on real campaigns:
//
//  1. The bit-flip decode pre-screen (Pruner, order 1): a flip that
//     corrupts its instruction's encoding beyond decodability crashes
//     at the fetch the reference trace proves is reached.
//
//  2. Reference inheritance (PairPruner, multi-fault sequences). The
//     first-fault snapshot tree runs each first fault once to its
//     effect horizon and digests the machine state there
//     (emu.Machine.StateDigest); a digest equal to the reference run's
//     at the same step means the first fault's effects died out, so
//     every sequence inherits its continuation's lower-order outcome (a
//     pair's second fault's solo outcome, a triple's remaining pair's).
//
//  3. The transparent-first-fault shortcut (inert.go): a first fault
//     whose skip window writes nothing leaves the machine on the
//     reference trajectory, so its group inherits without even the
//     horizon run.
//
// Soundness rests on the emulator's determinism: equal complete state
// plus equal run configuration (hooks keyed off the absolute step
// counter, the same absolute step limit) is equal continuation.
package fault

import (
	"sync"
	"sync/atomic"
)

// PruneStats accounts for how a pruned campaign's injections were
// classified. Every count is a pure function of the campaign, the shard
// and the lower-order outcomes the pruner was given: none depends on
// how workers interleave (a stage answered from a store counts
// nothing). Like CacheStats, the split is execution accounting, not
// part of the report — pruned and exhaustive reports are bit-identical.
type PruneStats struct {
	StaticDecode int `json:"static_decode"` // classified by the decode pre-screen
	StaticInert  int `json:"static_inert"`  // inherited past a transparent first fault
	RefEquiv     int `json:"ref_equiv"`     // inherited: state re-converged to the reference run
	Simulated    int `json:"simulated"`     // actually simulated
}

// Pruned returns how many injections were classified without their own
// simulation.
func (s PruneStats) Pruned() int { return s.StaticDecode + s.StaticInert + s.RefEquiv }

// Total returns the number of injections accounted for.
func (s PruneStats) Total() int { return s.Pruned() + s.Simulated }

// Add accumulates another stats record.
func (s *PruneStats) Add(o PruneStats) {
	s.StaticDecode += o.StaticDecode
	s.StaticInert += o.StaticInert
	s.RefEquiv += o.RefEquiv
	s.Simulated += o.Simulated
}

// Pruner is the order-1 pruning pass over one session: a drop-in
// replacement for Session.Simulate that answers undecodable bit flips
// with the decode pre-screen and counts what it did. Safe for
// concurrent use; plug it into ExecuteShardSim like any simulation
// function.
type Pruner struct {
	s           *Session
	decode, sim atomic.Int64
}

// NewPruner builds the order-1 pruning pass for this session.
func (s *Session) NewPruner() *Pruner { return &Pruner{s: s} }

// Simulate is Session.Simulate with accounting: an undecodable bit flip
// is a decode crash (see Session.decodePreScreen), everything else
// simulates.
func (p *Pruner) Simulate(f Fault) Outcome {
	if p.s.decodePreScreen(f) {
		p.decode.Add(1)
		return OutcomeCrash
	}
	p.sim.Add(1)
	return p.s.SimulateSeq(f)
}

// Stats snapshots the pass's accounting.
func (p *Pruner) Stats() PruneStats {
	return PruneStats{StaticDecode: int(p.decode.Load()), Simulated: int(p.sim.Load())}
}

// rest keys a sequence's continuation after its first fault: the
// pruner's ids (positions in its solo sweep) of the one or two later
// faults, b < 0 for one. Compact and comparable, so one table keys the
// lower-order outcomes of every order.
type rest struct{ a, b int32 }

// refDigest lazily computes one reference-state digest.
type refDigest struct {
	once sync.Once
	d    [32]byte
}

// PairPruner is the multi-fault engine's pruning layer. It is built per
// execution from the completed solo sweep and threaded through the
// first-fault snapshot tree (ExecuteSequences): a group whose first
// fault is transparent, or whose state at the effect horizon equals the
// reference run's, collapses to known lower-order outcomes; every other
// continuation is forked from the group's snapshot and finished
// through the session's continuation memo. Safe for concurrent use by
// the engine's worker pools.
type PairPruner struct {
	s     *Session
	solo  []Injection      // the solo sweep; a fault's id is its position
	ids   map[Fault]int32  // fault → id
	known map[rest]Outcome // lower-order outcomes: every solo fault, plus registered pairs

	mu   sync.Mutex
	refs map[uint64]*refDigest

	refEquiv, inert, sim atomic.Int64
}

// NewPairPruner builds the pruning layer over a completed solo sweep
// (the same injections the sequence lists were enumerated from), which
// must stay unmodified while the pruner is in use.
func (s *Session) NewPairPruner(solo []Injection) *PairPruner {
	pr := &PairPruner{
		s:     s,
		solo:  solo,
		ids:   make(map[Fault]int32, len(solo)),
		known: make(map[rest]Outcome, len(solo)),
		refs:  make(map[uint64]*refDigest),
	}
	for i, inj := range solo {
		pr.ids[inj.Fault] = int32(i)
		pr.known[rest{a: int32(i), b: -1}] = inj.Outcome
	}
	return pr
}

// SetPairOutcomes registers a completed pair sweep's outcomes, so an
// order-3 sweep on the same pruner can collapse reference-equal triple
// groups to the known outcome of their remaining pair. Outcomes
// accumulate across calls; pairs over faults outside the solo sweep are
// skipped. Must not run concurrently with an execution on this pruner.
func (pr *PairPruner) SetPairOutcomes(pairs []PairInjection) {
	for _, pi := range pairs {
		if r, ok := pr.restKey(pi.Pair.First, pi.Pair.Second); ok {
			pr.known[r] = pi.Outcome
		}
	}
}

// restKey interns a continuation of one or two faults. ok is false
// when a fault lies outside the solo sweep: such sequences are
// simulated, never inherited.
func (pr *PairPruner) restKey(later ...Fault) (r rest, ok bool) {
	r.b = -1
	if r.a, ok = pr.ids[later[0]]; ok && len(later) == 2 {
		r.b, ok = pr.ids[later[1]]
	}
	return r, ok
}

// later returns the faults a continuation key stands for, with their
// count.
func (pr *PairPruner) later(r rest) ([2]Fault, int) {
	if r.b < 0 {
		return [2]Fault{pr.solo[r.a].Fault}, 1
	}
	return [2]Fault{pr.solo[r.a].Fault, pr.solo[r.b].Fault}, 2
}

// knowsAll reports whether every continuation has a known lower-order
// outcome.
func (pr *PairPruner) knowsAll(rests []rest) bool {
	for _, r := range rests {
		if _, ok := pr.known[r]; !ok {
			return false
		}
	}
	return true
}

// Stats snapshots the layer's accounting.
func (pr *PairPruner) Stats() PruneStats {
	return PruneStats{
		RefEquiv:    int(pr.refEquiv.Load()),
		StaticInert: int(pr.inert.Load()),
		Simulated:   int(pr.sim.Load()),
	}
}

// refDigestAt returns the reference (un-faulted) run's state digest at
// the given absolute step, computed at most once per distinct step by
// resuming the nearest golden checkpoint under the same configuration
// faulted group runs use — so a faulted machine whose digest matches
// has provably re-converged to the reference trajectory.
func (pr *PairPruner) refDigestAt(step uint64) [32]byte {
	pr.mu.Lock()
	rd, ok := pr.refs[step]
	if !ok {
		rd = &refDigest{}
		pr.refs[step] = rd
	}
	pr.mu.Unlock()
	rd.once.Do(func() {
		m := pr.s.checkpointFor(step).Resume(pr.s.config())
		m.RunUntil(step)
		rd.d = m.StateDigest()
		m.Release()
	})
	return rd.d
}
