// Package campaigntest holds the shared helpers behind the campaign
// package's differential soundness harness (prunediff_test.go) and any
// other test that needs catalog-backed campaigns plus bit-identity
// assertions. It lives in its own package so experiment and CLI tests
// can reuse the same assertions without import cycles.
package campaigntest

import (
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
)

// StepLimit is the reference-run budget the harness uses — the same
// bound the CLI and the experiments suite run the catalog under.
const StepLimit = 32 << 20

// CaseCampaign builds a fault campaign over one catalog case study.
// maxFaults caps enumeration (0 = unlimited) so the full differential
// matrix stays affordable.
func CaseCampaign(tb testing.TB, name string, models []fault.Model, maxFaults int) fault.Campaign {
	tb.Helper()
	c, err := cases.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	return fault.Campaign{
		Binary:    c.MustBuild(),
		Good:      c.Good,
		Bad:       c.Bad,
		Models:    models,
		StepLimit: StepLimit,
		MaxFaults: maxFaults,
	}
}

// HardenedCampaign is CaseCampaign over the hybrid-hardened build of a
// catalog case (branch hardening plus the skip-window pass) — the
// artifact shape where pruning screens like the transparent-first-fault
// shortcut meet hardening-inserted spacers, clones and validation
// chains, so the differential harness exercises them against real
// countermeasure code rather than only the unhardened originals.
func HardenedCampaign(tb testing.TB, name string, models []fault.Model, maxFaults int) fault.Campaign {
	tb.Helper()
	c, err := cases.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	hr, err := harden.Hybrid(c.MustBuild(), harden.HybridOptions{SkipWindow: true})
	if err != nil {
		tb.Fatal(err)
	}
	return fault.Campaign{
		Binary:    hr.Binary,
		Good:      c.Good,
		Bad:       c.Bad,
		Models:    models,
		StepLimit: StepLimit,
		MaxFaults: maxFaults,
	}
}

// AssertReportsEqual fails unless two order-1 reports are bit-identical
// in everything the campaign's results consist of: oracles and the full
// injection list (faults and outcomes, in order).
func AssertReportsEqual(tb testing.TB, label string, want, got *fault.Report) {
	tb.Helper()
	if want.GoodOracle != got.GoodOracle || want.BadOracle != got.BadOracle {
		tb.Fatalf("%s: oracles differ: (%v,%v) vs (%v,%v)",
			label, want.GoodOracle, want.BadOracle, got.GoodOracle, got.BadOracle)
	}
	if len(want.Injections) != len(got.Injections) {
		tb.Fatalf("%s: %d injections vs %d", label, len(want.Injections), len(got.Injections))
	}
	for i := range want.Injections {
		if want.Injections[i] != got.Injections[i] {
			tb.Fatalf("%s: injection %d differs: %+v vs %+v",
				label, i, want.Injections[i], got.Injections[i])
		}
	}
}

// AssertOrder2Equal fails unless two multi-fault reports are
// bit-identical: the solo stage, the pair and triple lists (sequences
// and outcomes, in order), and the engine tallies.
func AssertOrder2Equal(tb testing.TB, label string, want, got *campaign.Order2Report) {
	tb.Helper()
	AssertReportsEqual(tb, label+" solo", want.Solo, got.Solo)
	if !reflect.DeepEqual(want.Pairs, got.Pairs) {
		tb.Fatalf("%s: pair stages differ (%d vs %d pairs)", label, len(want.Pairs), len(got.Pairs))
	}
	if want.PairTally != got.PairTally {
		tb.Fatalf("%s: pair tallies differ: %v vs %v", label, want.PairTally, got.PairTally)
	}
	if !reflect.DeepEqual(want.Triples, got.Triples) {
		tb.Fatalf("%s: triple stages differ (%d vs %d triples)", label, len(want.Triples), len(got.Triples))
	}
	if want.TripleTally != got.TripleTally {
		tb.Fatalf("%s: triple tallies differ: %v vs %v", label, want.TripleTally, got.TripleTally)
	}
}

// Lower views a multi-fault report's solo and pair stages alone — an
// order-3 report's lower stages, comparable against an order-2 run.
func Lower(rep *campaign.Order2Report) *campaign.Order2Report {
	return &campaign.Order2Report{Solo: rep.Solo, Pairs: rep.Pairs, PairTally: rep.PairTally}
}

// EveryNth returns items i, i+n, i+2n, ... of a list, in order: what
// shard i of n must select. It is written out here so that shard tests
// do not take the selection from fault.ShardSelect, the code they test.
func EveryNth[T any](items []T, i, n int) []T {
	out := []T{}
	for j := i; j < len(items); j += n {
		out = append(out, items[j])
	}
	return out
}

// AssertShard fails unless shard, run with Shard{i, n}, holds what the
// shard contract promises against the unsharded run full: its top
// stage (the triples of an order-3 report, else the pairs) is full's
// items i, i+n, i+2n, ... in order, its lower stages equal full's, and
// its engine tallies count its own lists.
func AssertShard(tb testing.TB, label string, full, shard *campaign.Order2Report, i, n int) {
	tb.Helper()
	want := Lower(full)
	if full.Triples == nil {
		want.Pairs, want.PairTally = EveryNth(full.Pairs, i, n), fault.Tally{}
		for _, p := range want.Pairs {
			want.PairTally[p.Outcome]++
		}
	} else {
		want.Triples = EveryNth(full.Triples, i, n)
		for _, tr := range want.Triples {
			want.TripleTally[tr.Outcome]++
		}
	}
	AssertOrder2Equal(tb, label, want, shard)
}

// ReferenceSweep simulates every sequence of a list on its own — one
// Session.SimulateSeq per sequence, no snapshot tree and no pruner: the
// reference a campaign's multi-fault stage must match bit for bit.
func ReferenceSweep[T fault.Sequence](s *fault.Session, list []T) ([]fault.Outcome, fault.Tally) {
	out := make([]fault.Outcome, len(list))
	var tally fault.Tally
	for i, it := range list {
		out[i] = s.SimulateSeq(it.Faults()...)
		tally[out[i]]++
	}
	return out, tally
}

// ReferenceOrder2 builds an order-2 campaign's report without the
// snapshot tree: the unpruned solo sweep, then ReferenceSweep over the
// pair list enumerated from it under the maxPairs budget.
func ReferenceOrder2(tb testing.TB, c fault.Campaign, maxPairs int) *campaign.Order2Report {
	tb.Helper()
	solo, err := campaign.Run(c, campaign.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := fault.NewSession(c)
	if err != nil {
		tb.Fatal(err)
	}
	pairs := fault.EnumeratePairs(solo.Injections, maxPairs)
	outcomes, tally := ReferenceSweep(s, pairs)
	return &campaign.Order2Report{Solo: solo, Pairs: fault.PairInjections(pairs, outcomes), PairTally: tally}
}

// AssertCorpusEqual fails unless two corpus results hold bit-identical
// cells: same cell order (case, order) and, per cell, identical reports
// at every order the cell ran. Execution accounting (elapsed, cache
// stats) is deliberately excluded — it varies across scheduling shapes
// while results must not.
func AssertCorpusEqual(tb testing.TB, label string, want, got *campaign.CorpusResult) {
	tb.Helper()
	if len(want.Results) != len(got.Results) {
		tb.Fatalf("%s: %d cells vs %d", label, len(want.Results), len(got.Results))
	}
	for i := range want.Results {
		w, g := &want.Results[i], &got.Results[i]
		cell := label + ": " + w.Case
		if w.Case != g.Case || w.Order != g.Order {
			tb.Fatalf("%s: cell %d is (%s, o%d) vs (%s, o%d)",
				label, i, w.Case, w.Order, g.Case, g.Order)
		}
		if (w.Err == nil) != (g.Err == nil) {
			tb.Fatalf("%s: cell %d errors differ: %v vs %v", label, i, w.Err, g.Err)
		}
		if w.Err != nil {
			continue
		}
		if (w.Order2 == nil) != (g.Order2 == nil) {
			tb.Fatalf("%s: cell %d ran different stages", label, i)
		}
		if w.Order2 != nil {
			AssertOrder2Equal(tb, cell, w.Order2, g.Order2)
		} else {
			AssertReportsEqual(tb, cell, w.Report, g.Report)
		}
	}
}
