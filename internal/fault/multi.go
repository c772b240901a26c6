// Multi-fault campaigns: deterministic enumeration and simulation of
// coordinated fault sequences — pairs (order 2) and triples (order 3).
// Single-fault-hardened binaries routinely fall to a second,
// coordinated injection (Boespflug et al.) — the classic example being
// a skip of a protected instruction paired with a skip of the
// countermeasure's check.
//
// One engine serves every order: the engine sees a sequence as its
// first fault plus a continuation of one or two later faults, and the
// first-fault snapshot tree (ExecuteSequences) runs each distinct first
// fault once to its effect horizon, digests the state there, and serves
// every continuation by inheritance or from a copy-on-write fork —
// always through the pruner in prune.go, without which the cubic triple
// space is intractable (ARMORY's scaling argument). The determinism
// guarantees match order 1: a sequence list is a pure function of the
// solo sweep, and outcomes are bit-identical to one simulation per
// sequence (SimulateSeq, SimulateCold) across worker counts, shard
// decompositions, and whatever the pruner inherited.
package fault

import (
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/emu"
)

// FaultPair is an ordered pair of faults injected into one run; Second
// always strikes strictly later in the trace than First.
type FaultPair struct {
	First  Fault
	Second Fault
}

// String renders the pair for reports.
func (p FaultPair) String() string {
	return p.First.String() + " + " + p.Second.String()
}

// Faults lists the pair's faults in trace order.
func (p FaultPair) Faults() []Fault { return []Fault{p.First, p.Second} }

// Seq returns the pair's faults by value, with their count.
func (p FaultPair) Seq() ([3]Fault, int) { return [3]Fault{p.First, p.Second}, 2 }

// FaultTriple is an ordered triple of faults injected into one run;
// trace order is strictly First < Second < Third.
type FaultTriple struct {
	First  Fault
	Second Fault
	Third  Fault
}

// String renders the triple for reports.
func (t FaultTriple) String() string {
	return t.First.String() + " + " + t.Second.String() + " + " + t.Third.String()
}

// Faults lists the triple's faults in trace order.
func (t FaultTriple) Faults() []Fault { return []Fault{t.First, t.Second, t.Third} }

// Seq returns the triple's faults by value, with their count.
func (t FaultTriple) Seq() ([3]Fault, int) { return [3]Fault{t.First, t.Second, t.Third}, 3 }

// Sequence is the element type of a multi-fault work list. Hot loops
// (the engine, the store's sequence digest) read an element's faults
// through Seq, which returns them by value: Faults' slice would cost
// one allocation per sequence.
type Sequence interface {
	FaultPair | FaultTriple
	Faults() []Fault
	Seq() ([3]Fault, int)
}

// PairInjection is the result of simulating one fault pair.
type PairInjection struct {
	Pair    FaultPair
	Outcome Outcome
}

// TripleInjection is the result of simulating one fault triple.
type TripleInjection struct {
	Triple  FaultTriple
	Outcome Outcome
}

// Default enumeration budgets when the caller supplies none. The
// unpruned sequence space is polynomial of the order's degree in the
// fault list, so the triple default is deliberately modest; campaigns
// that want either wider (or narrower) pass their own cap.
const (
	DefaultMaxPairs   = 4096
	DefaultMaxTriples = 2048
)

// EnumeratePairs builds the deterministic order-2 work list from a
// completed order-1 sweep (see walkSeqs), stopping at max pairs (0
// means DefaultMaxPairs).
func EnumeratePairs(solo []Injection, max int) []FaultPair {
	if max <= 0 {
		max = DefaultMaxPairs
	}
	cand := seqCandidates(solo)
	out := make([]FaultPair, 0, walkSeqs(cand, 2, max, nil))
	walkSeqs(cand, 2, max, func(f []Fault) {
		out = append(out, FaultPair{First: f[0], Second: f[1]})
	})
	return out
}

// EnumerateTriples builds the deterministic order-3 work list from a
// completed order-1 sweep (see walkSeqs), stopping at max triples (0
// means DefaultMaxTriples).
func EnumerateTriples(solo []Injection, max int) []FaultTriple {
	if max <= 0 {
		max = DefaultMaxTriples
	}
	cand := seqCandidates(solo)
	out := make([]FaultTriple, 0, walkSeqs(cand, 3, max, nil))
	walkSeqs(cand, 3, max, func(f []Fault) {
		out = append(out, FaultTriple{First: f[0], Second: f[1], Third: f[2]})
	})
	return out
}

// seqCandidates returns, in campaign order, the faults sequences draw
// their components from: every fault whose solo outcome was detected
// or ignored — a fault that already succeeds alone needs no partner,
// and a fault that crashes alone leaves no program state for a later
// fault to steer.
func seqCandidates(solo []Injection) []Fault {
	keep := func(o Outcome) bool { return o == OutcomeDetected || o == OutcomeIgnored }
	n := 0
	for _, inj := range solo {
		if keep(inj.Outcome) {
			n++
		}
	}
	cand := make([]Fault, 0, n)
	for _, inj := range solo {
		if keep(inj.Outcome) {
			cand = append(cand, inj.Fault)
		}
	}
	return cand
}

// walkSeqs is the one k-fault enumerator, budget-capped: it walks the
// length-k sequences over cand in which each fault strikes strictly
// later in the trace than the one before it — which both orders the
// injections physically and keeps one of each symmetric permutation —
// in campaign order (first fault outermost, last innermost), and stops
// after max sequences, so the same solo sweep always yields the same
// work list. It returns the number of sequences walked; emit, when
// non-nil, receives each one in a buffer reused across calls, so the
// enumerators count with a nil emit and then fill a list allocated
// once.
func walkSeqs(cand []Fault, k, max int, emit func([]Fault)) int {
	seq := make([]Fault, k)
	n := 0
	var walk func(depth int) bool
	walk = func(depth int) bool {
		for _, f := range cand {
			if depth > 0 && f.TraceIndex <= seq[depth-1].TraceIndex {
				continue
			}
			seq[depth] = f
			if depth+1 < k {
				if !walk(depth + 1) {
					return false
				}
				continue
			}
			if emit != nil {
				emit(seq)
			}
			if n++; n >= max {
				return false
			}
		}
		return true
	}
	walk(0)
	return n
}

// group is one node of the first-fault snapshot tree: every selected
// sequence sharing one first fault whose later faults all strike at or
// after the first's effect horizon, the end of its hooks' window. The
// group costs one prefix resume plus one run to the horizon, then at
// most one cheap snapshot fork per continuation.
type group struct {
	first Fault
	cfg   emu.Config // the first fault's run, built once per group
	end   uint64     // snapshot step: the end of cfg's hook window
	idx   []int      // positions in the shard-local selection
	rests []rest     // the continuation key of each position
}

// ExecuteSequences simulates the sequences of shard shardIndex (of
// shardCount round-robin shards) on a worker pool through the
// first-fault snapshot tree and the pruner pr, and returns the
// shard-local selection with its outcomes. Each distinct first fault
// replays its prefix once and serves every continuation (see runGroup):
// O(distinct first faults) prefix replays instead of O(sequences).
// Sequences outside the tree — a later fault striking inside the
// first's hook window, or a fault the pruner's solo sweep does not
// hold — take the per-sequence SimulateSeq path. Outcomes land at
// fixed positions and are bit-identical to SimulateSeq (and
// SimulateCold) regardless of worker count, grouping, or what the
// pruner inherited. progress, when non-nil, is invoked after every
// classified sequence, possibly from several goroutines at once.
func ExecuteSequences[T Sequence](s *Session, items []T, pr *PairPruner, shardIndex, shardCount, workers int, progress func(done, total int)) ([]T, []Outcome, Tally) {
	sel := ShardSelect(items, shardIndex, shardCount)
	outcomes := make([]Outcome, len(sel))
	if len(sel) == 0 {
		return sel, outcomes, Tally{}
	}

	// Partition into snapshot-tree groups (first-seen order) and loose
	// per-sequence work. Each distinct first fault's config is built
	// once; its hook window gives the horizon every sequence sharing
	// that first fault is checked against.
	groupOf := make(map[Fault]*group)
	var groups []*group
	var loose []int
	for i, it := range sel {
		fs, n := it.Seq()
		faults := fs[:n]
		g := groupOf[faults[0]]
		if g == nil {
			g = &group{first: faults[0], cfg: s.config(faults[0])}
			_, g.end = g.cfg.HookWindow()
			groupOf[faults[0]] = g
		}
		ok := true
		for _, f := range faults[1:] {
			ok = ok && uint64(f.TraceIndex) >= g.end
		}
		var r rest
		if ok {
			r, ok = pr.restKey(faults[1:]...)
		}
		if !ok {
			loose = append(loose, i)
			continue
		}
		if len(g.idx) == 0 {
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
		g.rests = append(g.rests, r)
	}

	// Work units: one per group, one per loose sequence; claimed in
	// dynamically sized chunks from the pool like runShard. A group is
	// one unit (its tree shares one resumed prefix), so chunk
	// boundaries never split a tree.
	units := len(groups) + len(loose)
	var done atomic.Int64
	var mu sync.Mutex
	var tally Tally
	s.executePool(workers).Execute(units, func(lo, hi int) {
		var local Tally
		record := func(i int, o Outcome) {
			outcomes[i] = o
			local[o]++
			if progress != nil {
				progress(int(done.Add(1)), len(sel))
			}
		}
		for u := lo; u < hi; u++ {
			if u < len(groups) {
				s.runGroup(pr, groups[u], record)
				continue
			}
			i := loose[u-len(groups)]
			fs, n := sel[i].Seq()
			pr.sim.Add(1)
			record(i, s.SimulateSeq(fs[:n]...))
		}
		mu.Lock()
		tally.Add(local)
		mu.Unlock()
	})
	return sel, outcomes, tally
}

// runGroup executes one snapshot-tree node through the pruner: resume
// the nearest golden checkpoint with the first fault's hooks, run until
// those hooks are inert, and digest the machine. A state equal to the
// reference run's means the first fault's effects died out, so each
// sequence runs exactly like its continuation alone — a lower-order
// outcome the pruner may already know (the solo sweep's for a pair's
// second fault, a registered pair sweep's for a triple's last two).
// Every other continuation forks the group's snapshot and finishes
// through the session's continuation memo.
//
// A continuation's fork composes its faults' hooks onto a snapshot
// resume, which matches SimulateSeq bit for bit: before the snapshot
// step no later hook could have fired (eligibility requires every later
// fault to strike at or after the horizon), and after it the first
// fault's hooks are inert: the horizon is the end of their window.
func (s *Session) runGroup(pr *PairPruner, g *group, record func(i int, o Outcome)) {
	// Transparent first fault: its window writes nothing, so the
	// machine stays bit-identical to the reference trajectory through
	// the effect horizon and each sequence runs like its continuation
	// alone. Any unknown continuation outcome falls back to the dynamic
	// path for the whole group.
	if s.transparentFirst(g) && pr.knowsAll(g.rests) {
		for n, i := range g.idx {
			record(i, pr.known[g.rests[n]])
		}
		pr.inert.Add(int64(len(g.idx)))
		return
	}
	m := s.checkpointFor(uint64(g.first.TraceIndex)).Resume(g.cfg)
	res, done, err := m.RunUntil(g.end)
	if done {
		// The first-fault run ended (exit, crash, or step limit) before
		// any later fault's step: every sequence in the group classifies
		// exactly like the solo first-fault run. Not a pruner saving, so
		// it counts as simulated.
		o := classify(res, err, s.good)
		pr.sim.Add(int64(len(g.idx)))
		for _, i := range g.idx {
			record(i, o)
		}
		m.Release()
		return
	}
	refEqual := m.StateDigest() == pr.refDigestAt(g.end)

	// The snapshot materializes lazily: a fully reference-equal group
	// never forks.
	var snap *emu.Snapshot
	for n, i := range g.idx {
		r := g.rests[n]
		if o, ok := pr.known[r]; refEqual && ok {
			record(i, o)
			pr.refEquiv.Add(1)
			continue
		}
		if snap == nil {
			snap = m.Snapshot()
		}
		later, k := pr.later(r)
		pr.sim.Add(1)
		record(i, s.finish(snap.Resume(s.config(later[:k]...))))
	}
	// No-op when a snapshot froze m; recycles the buffers otherwise
	// (every sequence inherited its continuation's outcome).
	m.Release()
}

// ExecutePairShardPruned simulates the pairs of one shard through the
// pruned first-fault snapshot tree (see ExecuteSequences).
func (s *Session) ExecutePairShardPruned(pairs []FaultPair, pr *PairPruner, shardIndex, shardCount, workers int, progress func(done, total int)) ([]PairInjection, Tally) {
	sel, outcomes, tally := ExecuteSequences(s, pairs, pr, shardIndex, shardCount, workers, progress)
	return PairInjections(sel, outcomes), tally
}

// ExecuteTripleShard simulates the triples of one shard through the
// pruned first-fault snapshot tree (see ExecuteSequences).
func (s *Session) ExecuteTripleShard(triples []FaultTriple, pr *PairPruner, shardIndex, shardCount, workers int, progress func(done, total int)) ([]TripleInjection, Tally) {
	sel, outcomes, tally := ExecuteSequences(s, triples, pr, shardIndex, shardCount, workers, progress)
	return TripleInjections(sel, outcomes), tally
}

// PairInjections zips a pair selection with its outcome column.
func PairInjections(sel []FaultPair, outcomes []Outcome) []PairInjection {
	out := make([]PairInjection, len(sel))
	for i, p := range sel {
		out[i] = PairInjection{Pair: p, Outcome: outcomes[i]}
	}
	return out
}

// TripleInjections zips a triple selection with its outcome column.
func TripleInjections(sel []FaultTriple, outcomes []Outcome) []TripleInjection {
	out := make([]TripleInjection, len(sel))
	for i, t := range sel {
		out[i] = TripleInjection{Triple: t, Outcome: outcomes[i]}
	}
	return out
}
