// Benchmarks for the plan → execute → store campaign
// engine: the Faulter+Patcher fixed point (cold, and warm from a
// content-addressed store) and the per-pair reference sweep the
// pruned first-fault snapshot tree (bench_prune_test.go) replaces.
package reinforce

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
)

// patchOptions is the standing fixed-point configuration the patch
// benchmarks share.
func patchOptions(c *cases.Case, order int, st *campaign.Store) harden.FaulterPatcherOptions {
	return harden.FaulterPatcherOptions{
		Good:   c.Good,
		Bad:    c.Bad,
		Models: []fault.Model{fault.ModelSkip},
		Order:  order,
		Store:  st,
	}
}

// BenchmarkPatchFixedPoint measures the order-1 Faulter+Patcher fixed
// point cold: every iteration's campaign planned and executed on the
// driver's private in-memory store, which answers only its repeats
// (the final verification of the last iteration's binary).
func BenchmarkPatchFixedPoint(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	hits := 0
	for i := 0; i < b.N; i++ {
		res, err := harden.FaulterPatcher(bin, patchOptions(c, 1, nil))
		if err != nil {
			b.Fatal(err)
		}
		hits += res.Cache.Hits
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkPatchFixedPointWarm measures the same fixed point answered
// from a pre-warmed content-addressed store — the `r2r patch
// -cache-dir` re-invocation path, which should replay without
// simulating a single injection.
func BenchmarkPatchFixedPointWarm(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	st, err := campaign.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := harden.FaulterPatcher(bin, patchOptions(c, 1, st)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		res, err := harden.FaulterPatcher(bin, patchOptions(c, 1, st))
		if err != nil {
			b.Fatal(err)
		}
		if res.Cache.Misses != 0 {
			b.Fatalf("warm fixed point missed the store: %+v", res.Cache)
		}
		hits += res.Cache.Hits
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkPatchOrder2FixedPoint measures the order-2 escalation fixed
// point (the first round's solo sweep answered from the driver's
// store, pair sweeps on the snapshot tree).
func BenchmarkPatchOrder2FixedPoint(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	for i := 0; i < b.N; i++ {
		res, err := harden.FaulterPatcher(bin, patchOptions(c, 2, nil))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PairIterations) == 0 {
			b.Fatal("order-2 stage did not run")
		}
	}
}

// BenchmarkOrder2PairSweepPerPair is the pre-tree baseline: the
// bootloader pair list of BenchmarkOrder2PairSweepPruned simulated one
// SimulateSeq call per pair — each replaying its prefix from the
// nearest golden checkpoint — on the same GOMAXPROCS worker pool the
// engine uses, so the tree-vs-per-pair comparison isolates the
// snapshot forking and pruning, not parallelism.
func BenchmarkOrder2PairSweepPerPair(b *testing.B) {
	c := cases.Bootloader()
	s, _, pairs := pairSweepFixture(b, fault.Campaign{
		Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1) - 1)
					if j >= len(pairs) {
						return
					}
					s.SimulateSeq(pairs[j].Faults()...)
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(len(pairs)*b.N)/b.Elapsed().Seconds(), "pairs/s")
}
