// Fault-equivalence-class pruning: sound pre-campaign reductions that
// classify injections without simulating them, while keeping every
// report bit-identical to the exhaustive sweep (the contract the
// campaign package's differential harness enforces case by case).
//
// Two reductions, after Boespflug et al.'s redundancy analysis and
// ARMORY's observation that exhaustive fault simulation only scales
// with exactly this kind of pruning:
//
//  1. Static reachability over the recorded reference trace (Pruner).
//     A fault whose trace index lies at or beyond the injection step
//     budget strikes after the budget cuts the run: the un-faulted
//     prefix alone exhausts the budget, and the reference run proves
//     that prefix does not crash earlier, so the outcome is a
//     step-limit crash without simulation. Likewise, a bit flip that
//     corrupts its instruction's encoding beyond decodability crashes
//     at the fetch the reference trace proves is reached — the decode
//     pre-screen, lifted out of Simulate and accounted for here.
//
//  2. State-hash equivalence classing on forked first-fault snapshots
//     (PairPruner), always on for multi-fault sequences. The snapshot
//     tree already runs each first fault once to its effect horizon;
//     digesting the machine state there (emu.Machine.StateDigest)
//     detects two collapses: a digest equal to the reference run's at
//     the same step means the first fault's effects died out, so every
//     sequence inherits its continuation's lower-order outcome (a
//     pair's second fault's solo outcome, a triple's remaining pair's);
//     and two groups with equal digests are the same machine, so
//     continuation outcomes computed once per equivalence class are
//     inherited instead of re-simulated.
//
// Soundness rests on the emulator's determinism: equal complete state
// plus equal run configuration (hooks keyed off the absolute step
// counter, the same absolute step limit) is equal continuation.
package fault

import (
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/emu"
)

// PruneStats accounts for how a pruned campaign's injections were
// classified. The counts are deterministic for a fixed campaign and
// shard: class simulation holds the class lock, so exactly one group
// pays for each distinct (state, continuation) no matter how workers
// interleave. Like CacheStats, the split is execution accounting, not
// part of the report — pruned and exhaustive reports are bit-identical.
type PruneStats struct {
	StaticBudget int `json:"static_budget"` // classified by the step-budget gate
	StaticDecode int `json:"static_decode"` // classified by the decode pre-screen
	StaticInert  int `json:"static_inert"`  // classified by the inert-window dataflow screen
	RefEquiv     int `json:"ref_equiv"`     // inherited: state re-converged to the reference run
	ClassEquiv   int `json:"class_equiv"`   // inherited from an equivalence-class representative
	Simulated    int `json:"simulated"`     // actually simulated
}

// Pruned returns how many injections were classified without their own
// simulation.
func (s PruneStats) Pruned() int {
	return s.StaticBudget + s.StaticDecode + s.StaticInert + s.RefEquiv + s.ClassEquiv
}

// Total returns the number of injections accounted for.
func (s PruneStats) Total() int { return s.Pruned() + s.Simulated }

// Add accumulates another stats record.
func (s *PruneStats) Add(o PruneStats) {
	s.StaticBudget += o.StaticBudget
	s.StaticDecode += o.StaticDecode
	s.StaticInert += o.StaticInert
	s.RefEquiv += o.RefEquiv
	s.ClassEquiv += o.ClassEquiv
	s.Simulated += o.Simulated
}

// Pruner is the static (order-1) pruning pass over one session: a
// drop-in replacement for Session.Simulate / Session.SimulateRecord
// that answers statically classifiable faults without simulation and
// counts what it did. Safe for concurrent use; plug it into
// ExecuteShardSim like any simulation function.
type Pruner struct {
	s                          *Session
	budget, decode, inert, sim atomic.Int64
}

// NewPruner builds the static pruning pass for this session.
func (s *Session) NewPruner() *Pruner { return &Pruner{s: s} }

// Simulate classifies one fault, statically when sound: a trace index
// at or beyond the injection step budget is a step-limit crash (the
// reference run proves the un-faulted prefix reaches the budget
// without crashing first), an undecodable bit flip is a decode crash
// (see Session.decodePreScreen), and a skip whose window the dataflow
// engine proves inert keeps the reference outcome (see inert.go). The
// budget gate stays first: a fault both beyond budget and inert must
// still answer the crash the exhaustive sweep observes. Everything
// else simulates.
func (p *Pruner) Simulate(f Fault) Outcome {
	if uint64(f.TraceIndex) >= p.s.c.InjectionStepLimit {
		p.budget.Add(1)
		return OutcomeCrash
	}
	if p.s.decodePreScreen(f) {
		p.decode.Add(1)
		return OutcomeCrash
	}
	if o, ok := p.s.inertOutcome(f); ok {
		p.inert.Add(1)
		return o
	}
	p.sim.Add(1)
	return p.s.SimulateSeq(f)
}

// SimulateRecord is Simulate for the evidence-recording path. Only the
// decode pre-screen is answered statically here: a budget-gated crash
// record would carry no simulated code-page footprint, and fabricating
// one that footprint-gated memo reuse could later trust must stay
// byte-identical to SimulateRecord's — simulating keeps that true by
// construction, and a budget small enough to gate also makes the
// simulation it forces cheap (the run is cut at that same budget).
// Inert-window classification is skipped for the same reason: its
// answer rests on whole-binary dataflow facts, not a recordable page
// footprint.
func (p *Pruner) SimulateRecord(f Fault) SimRecord {
	if p.s.decodePreScreen(f) {
		p.decode.Add(1)
		return p.s.preScreenRecord(f)
	}
	p.sim.Add(1)
	return p.s.simulateRecordDynamic(f)
}

// Stats snapshots the pass's accounting.
func (p *Pruner) Stats() PruneStats {
	return PruneStats{
		StaticBudget: int(p.budget.Load()),
		StaticDecode: int(p.decode.Load()),
		StaticInert:  int(p.inert.Load()),
		Simulated:    int(p.sim.Load()),
	}
}

// classKey identifies a state-equivalence class: the absolute step a
// first-fault group was digested at, plus the machine-state digest.
// Groups with equal keys are the same machine about to run the same
// continuations.
type classKey struct {
	step   uint64
	digest [32]byte
}

// rest keys a sequence's continuation after its first fault: the
// pruner's ids (positions in its solo sweep) of the one or two later
// faults, b < 0 for one. Compact and comparable, so one memo keys the
// continuations of every order.
type rest struct{ a, b int32 }

// equivClass caches the continuation outcomes computed from one
// machine state. The lock is held across the simulation that fills a
// missing entry, so each distinct continuation is simulated exactly
// once — which keeps PruneStats deterministic (set-union accounting) as
// well as cheap.
type equivClass struct {
	mu       sync.Mutex
	outcomes map[rest]Outcome
}

// refDigest lazily computes one reference-state digest.
type refDigest struct {
	once sync.Once
	d    [32]byte
}

// PairPruner is the state-hash equivalence layer of the multi-fault
// engine. It is built per execution from the completed solo sweep and
// threaded through the first-fault snapshot tree (ExecuteSequences):
// each group is digested at its effect horizon and either collapses to
// known lower-order outcomes (reference-equal state) or shares
// continuation outcomes with every group in its equivalence class. Safe
// for concurrent use by the engine's worker pools.
//
// Sharing is per-pruner: two shards of one campaign executed with
// separate pruners still produce bit-identical reports (inheritance
// only ever substitutes provably equal outcomes), they just discover
// equivalences independently, so their PruneStats may split
// differently between ClassEquiv and Simulated.
type PairPruner struct {
	s     *Session
	solo  []Injection      // the solo sweep; a fault's id is its position
	ids   map[Fault]int32  // fault → id
	known map[rest]Outcome // lower-order outcomes: every solo fault, plus registered pairs

	mu      sync.Mutex
	refs    map[uint64]*refDigest
	classes map[classKey]*equivClass

	refEquiv, classEquiv, inert, sim atomic.Int64
}

// NewPairPruner builds the equivalence layer over a completed solo
// sweep (the same injections the sequence lists were enumerated from),
// which must stay unmodified while the pruner is in use.
func (s *Session) NewPairPruner(solo []Injection) *PairPruner {
	pr := &PairPruner{
		s:       s,
		solo:    solo,
		ids:     make(map[Fault]int32, len(solo)),
		known:   make(map[rest]Outcome, len(solo)),
		refs:    make(map[uint64]*refDigest),
		classes: make(map[classKey]*equivClass),
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
		ClassEquiv:  int(pr.classEquiv.Load()),
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

// classFor returns (creating if needed) the equivalence class of a
// digested group state.
func (pr *PairPruner) classFor(step uint64, digest [32]byte) *equivClass {
	k := classKey{step: step, digest: digest}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	cl, ok := pr.classes[k]
	if !ok {
		cl = &equivClass{outcomes: make(map[rest]Outcome)}
		pr.classes[k] = cl
	}
	return cl
}

// classOutcome returns the class's outcome for continuation r, forking
// the class state snap to simulate it (under the class lock, finishing
// through the session's continuation memo) on first need.
func (pr *PairPruner) classOutcome(cl *equivClass, snap *emu.Snapshot, r rest) Outcome {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if o, ok := cl.outcomes[r]; ok {
		pr.classEquiv.Add(1)
		return o
	}
	later, n := [2]Fault{pr.solo[r.a].Fault}, 1
	if r.b >= 0 {
		later[1], n = pr.solo[r.b].Fault, 2
	}
	o := pr.s.finish(snap.Resume(pr.s.config(later[:n]...)))
	pr.sim.Add(1)
	cl.outcomes[r] = o
	return o
}
