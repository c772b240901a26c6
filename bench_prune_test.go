// Benchmarks for the multi-fault engine, the pruned first-fault
// snapshot tree: the order-2 pair sweep (against the per-pair
// BenchmarkOrder2PairSweepPerPair baseline on the same case), the
// hardened-binary sweep where state-equivalence inheritance does most
// of the work, and the order-3 triple sweep the pruner makes
// tractable.
package reinforce

import (
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/patch"
)

// pairSweepFixture is the (session, solo, pairs) setup shared by the
// pair-sweep benchmarks. The unhardened callers share one bootloader
// configuration, so the tree and per-pair numbers compare directly.
func pairSweepFixture(b *testing.B, camp fault.Campaign) (*fault.Session, []fault.Injection, []fault.FaultPair) {
	b.Helper()
	s, err := fault.NewSession(camp)
	if err != nil {
		b.Fatal(err)
	}
	solo, _ := s.ExecuteShard(0, 1, 0, nil)
	pairs := fault.EnumeratePairs(solo, 0)
	if len(pairs) == 0 {
		b.Fatal("no pairs to sweep")
	}
	return s, solo, pairs
}

// BenchmarkOrder2PairSweepPruned sweeps the bootloader pair list
// through a fresh PairPruner each iteration (cold — no class state
// carried between iterations), so pairs/s measures the end-to-end
// pruned sweep including every digest the reductions pay for.
func BenchmarkOrder2PairSweepPruned(b *testing.B) {
	c := cases.Bootloader()
	s, solo, pairs := pairSweepFixture(b, fault.Campaign{
		Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := s.NewPairPruner(solo)
		s.ExecutePairShardPruned(pairs, pr, 0, 1, 0, nil)
	}
	b.ReportMetric(float64(len(pairs)*b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkOrder2PairSweepPrunedHardened sweeps the Faulter+Patcher-
// hardened bootloader, where the added countermeasures leave many
// second faults landing on state the reference run already reached —
// the regime state-hash inheritance was built for.
func BenchmarkOrder2PairSweepPrunedHardened(b *testing.B) {
	c := cases.Bootloader()
	res, err := patch.Harden(c.MustBuild(), patch.Options{
		Good: c.Good, Bad: c.Bad, Models: []fault.Model{fault.ModelSkip},
	})
	if err != nil {
		b.Fatal(err)
	}
	s, solo, pairs := pairSweepFixture(b, fault.Campaign{
		Binary: res.Binary, Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := s.NewPairPruner(solo)
		s.ExecutePairShardPruned(pairs, pr, 0, 1, 0, nil)
	}
	b.ReportMetric(float64(len(pairs)*b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkOrder3TripleSweep measures the order-3 stage the pruner
// unlocks: the budget-capped triple list on the bootloader, executed
// with a pair-seeded pruner the way campaign.RunOrder3 drives it.
func BenchmarkOrder3TripleSweep(b *testing.B) {
	c := cases.Bootloader()
	s, solo, pairs := pairSweepFixture(b, fault.Campaign{
		Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip},
	})
	pairInj, _ := s.ExecutePairShardPruned(pairs, s.NewPairPruner(solo), 0, 1, 0, nil)
	triples := fault.EnumerateTriples(solo, fault.DefaultMaxTriples)
	if len(triples) == 0 {
		b.Fatal("no triples to sweep")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := s.NewPairPruner(solo)
		pr.SetPairOutcomes(pairInj)
		s.ExecuteTripleShard(triples, pr, 0, 1, 0, nil)
	}
	b.ReportMetric(float64(len(triples)*b.N)/b.Elapsed().Seconds(), "triples/s")
}
