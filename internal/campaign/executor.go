// Executor: the middle stage of the plan → execute → store
// architecture. It drives a fault.Session for one plan, stage by
// stage: a store entry under the stage's plan key answers the stage
// whole (the session still provides the trace, oracles, and fault
// list — all cheap relative to the injections), and a miss simulates
// the stage and saves its outcome column for the next run of the same
// plan.
package campaign

import (
	"github.com/r2r/reinforce/internal/fault"
)

// executor runs one plan on a session, consulting the store. The
// order-1 sweep always runs through the decode pre-screen's counting
// wrapper (fault.Pruner) and multi-fault stages on the pruned
// first-fault tree; the accumulated accounting lands in stats, and
// prune decides only whether the run reports it. The stages (solo,
// then stage per order) are called sequentially by one goroutine — the
// pruners they build handle the intra-stage concurrency — so stats and
// pruner need no locking here.
type executor struct {
	s     *fault.Session
	store *Store
	prune bool // report the pruning accounting

	stats  fault.PruneStats
	pruner *fault.PairPruner // built by the first stage that simulates, shared by the later ones
	fd     string            // digest of the session's fault list, once computed
}

// faultsDigest digests the session's fault list on first use; every
// stage of one run stores it.
func (e *executor) faultsDigest() string {
	if e.fd == "" {
		e.fd = digestFaults(e.s.Faults())
	}
	return e.fd
}

// pruneStats returns the accumulated pruning accounting, or nil when
// the run does not report it (so exports omit the block entirely). The
// multi-fault pruner's share is read live rather than accumulated into
// stats: the pair and triple stages deliberately share one pruner, and
// snapshotting it once here keeps their joint accounting from
// double-counting.
func (e *executor) pruneStats() *fault.PruneStats {
	if !e.prune {
		return nil
	}
	st := e.stats
	if e.pruner != nil {
		st.Add(e.pruner.Stats())
	}
	return &st
}

// shardSelect adapts the engine's single round-robin decomposition
// (fault.ShardSelect — also behind the engine's shard and sequence
// runs) to the campaign Shard type, so stored outcome columns are
// always zipped back against exactly the selection the engine
// executed.
func shardSelect[T any](items []T, shard Shard) []T {
	return fault.ShardSelect(items, shard.Index, shard.Count)
}

// answer is the one store round-trip of a plan stage (order 1: the
// solo sweep; 2 and 3: pairs and triples). n is the stage's shard-local
// injection count, and seqs digests a multi-fault stage's sequence
// list (nil at order 1). An entry under the stage's plan key answers
// the stage when every guard holds: the fault-list and sequence-list
// digests, the oracles, the injection budget and the column length.
// Otherwise run simulates it and its outcome column is saved. Without
// a store the stage only runs: no plan key or digest is computed.
func (e *executor) answer(c fault.Campaign, shard Shard, order, maxSeqs, n int, seqs func() string, progress func(done, total int), run func() ([]fault.Outcome, fault.Tally)) ([]fault.Outcome, fault.Tally, CacheStats) {
	if e.store == nil {
		outcomes, tally := run()
		return outcomes, tally, CacheStats{}
	}
	key := NewPlan(c, shard, order, maxSeqs).Key
	var sd string
	if seqs != nil {
		sd = seqs()
	}
	good, bad := e.s.Oracles()
	limit := e.s.InjectionLimit()
	if entry, ok := e.store.Lookup(key); ok && entry.FaultsDigest == e.faultsDigest() &&
		entry.SeqDigest == sd && entry.GoodOracle == good && entry.BadOracle == bad &&
		entry.Limit == limit && len(entry.Outcomes) == n {
		var tally fault.Tally
		for _, o := range entry.Outcomes {
			tally[o]++
		}
		if progress != nil {
			progress(n, n)
		}
		return entry.Outcomes, tally, CacheStats{Hits: 1}
	}
	// No entry, or a stale one (enumeration drift, oracle change):
	// simulate.
	outcomes, tally := run()
	stats := CacheStats{Misses: 1}
	if err := e.store.Save(&Entry{
		Key: key, FaultsDigest: e.faultsDigest(), SeqDigest: sd,
		GoodOracle: good, BadOracle: bad, Limit: limit,
		Outcomes: outcomes,
	}); err != nil {
		stats.WriteErrors++
	}
	return outcomes, tally, stats
}

// solo executes the order-1 stage of a plan: the shard's faults through
// the decode pre-screen's counting wrapper and the session's
// continuation memo, answered from the store when it can be. It
// returns the shard-local injections and the cache accounting, which
// counts every simulated fault as resimulated.
func (e *executor) solo(c fault.Campaign, shard Shard, workers int, progress func(done, total int)) ([]fault.Injection, fault.Tally, CacheStats) {
	sel := shardSelect(e.s.Faults(), shard)
	var injections []fault.Injection
	outcomes, tally, stats := e.answer(c, shard, 1, 0, len(sel), nil, progress, func() ([]fault.Outcome, fault.Tally) {
		pr := e.s.NewPruner()
		var tally fault.Tally
		injections, tally = e.s.ExecuteShardSim(shard.Index, shard.Count, workers, pr.Simulate, progress)
		e.stats.Add(pr.Stats())
		outcomes := make([]fault.Outcome, len(injections))
		for i, inj := range injections {
			outcomes[i] = inj.Outcome
		}
		return outcomes, tally
	})
	if stats.Hits == 0 {
		stats.Resimulated = len(sel)
		return injections, tally, stats
	}
	injections = make([]fault.Injection, len(sel))
	for i, f := range sel {
		injections[i] = fault.Injection{Fault: f, Outcome: outcomes[i]}
	}
	return injections, tally, stats
}

// stage executes one multi-fault stage of a plan (order 2: pairs,
// order 3: triples) over the completed solo sweep, returning the
// shard-local sequence selection and its outcome column. The plan's
// budget slot carries the stage's own enumeration cap — sound because
// every sequence list derives from the solo sweep alone. The pruner is
// built only when a stage simulates, then shared by the later stages
// so the reference digests computed at order 2 keep paying at order 3;
// lower, the completed pair stage (nil for pairs), lets
// reference-equal triples inherit their remaining pair's outcome.
func stage[T fault.Sequence](e *executor, c fault.Campaign, order, maxSeqs int, list []T, shard Shard, workers int, solo []fault.Injection, lower []fault.PairInjection, progress func(done, total int)) ([]T, []fault.Outcome, fault.Tally, CacheStats) {
	sel := shardSelect(list, shard)
	seqs := func() string { return digestSeqs(list) }
	outcomes, tally, stats := e.answer(c, shard, order, maxSeqs, len(sel), seqs, progress, func() ([]fault.Outcome, fault.Tally) {
		if e.pruner == nil {
			e.pruner = e.s.NewPairPruner(solo)
		}
		e.pruner.SetPairOutcomes(lower)
		_, outcomes, tally := fault.ExecuteSequences(e.s, list, e.pruner, shard.Index, shard.Count, workers, progress)
		return outcomes, tally
	})
	return sel, outcomes, tally, stats
}
