// The differential soundness harness for the fault-equivalence pruning
// pass: every cell of the (catalog case × registered model × order)
// matrix is executed against a reference that prunes nothing — the
// exhaustive order-1 sweep, and one simulation per sequence for the
// multi-fault stages (which always run on the pruned first-fault tree)
// — and the reports must be bit-identical: the contract that makes
// pruning safe to use anywhere. The harness also pins the invariances
// the engine guarantees around pruning: worker count, shard
// decomposition, and warm-store replay.
//
// External test package: the harness consumes campaigntest, which
// imports campaign.
package campaign_test

import (
	"fmt"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/campaign/campaigntest"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// Matrix budgets: wide enough that every reduction fires on real
// catalog campaigns, small enough that the full matrix stays minutes,
// not hours.
const (
	diffMaxFaults = 400
	diffMaxPairs  = 256
)

// diffMatrix yields the harness's (case, models) cells: every catalog
// case crossed with every registered model singly. Short mode keeps
// the paper pair × two structurally distinct models as a smoke matrix;
// the dedicated non-short CI job runs the whole thing.
func diffMatrix(t *testing.T) (names []string, modelSets [][]fault.Model) {
	t.Helper()
	names = cases.Names()
	if len(names) < 5 {
		t.Fatalf("catalog has %d cases, want >= 5", len(names))
	}
	for _, m := range fault.RegisteredModels() {
		modelSets = append(modelSets, []fault.Model{m})
	}
	if testing.Short() {
		names = names[:2]
		modelSets = [][]fault.Model{{fault.ModelSkip}, {fault.ModelBitFlip}}
	}
	return names, modelSets
}

// TestPruneDifferentialOrder1: pruned order-1 campaigns are
// bit-identical to exhaustive ones across the whole matrix, and their
// accounting does not depend on the store: a run through a fresh store
// reports the same PruneStats as the store-less run.
func TestPruneDifferentialOrder1(t *testing.T) {
	names, modelSets := diffMatrix(t)
	for _, name := range names {
		for _, models := range modelSets {
			label := fmt.Sprintf("%s/%v", name, models)
			c := campaigntest.CaseCampaign(t, name, models, diffMaxFaults)
			plain, err := campaign.Run(c, campaign.Options{})
			if err != nil {
				t.Fatalf("%s: exhaustive: %v", label, err)
			}
			jobs := []campaign.Job{{Name: label, Campaign: c}}
			pruned := campaign.RunAll(jobs, campaign.Options{Prune: true})[0]
			if pruned.Err != nil {
				t.Fatalf("%s: pruned: %v", label, pruned.Err)
			}
			campaigntest.AssertReportsEqual(t, label, plain, pruned.Report)
			st, err := campaign.NewStore("")
			if err != nil {
				t.Fatal(err)
			}
			stored := campaign.RunAll(jobs, campaign.Options{Prune: true, Store: st})[0]
			if stored.Err != nil {
				t.Fatalf("%s: pruned with a store: %v", label, stored.Err)
			}
			campaigntest.AssertReportsEqual(t, label+" with a store", plain, stored.Report)
			if pruned.Prune == nil || stored.Prune == nil || *pruned.Prune != *stored.Prune {
				t.Fatalf("%s: prune stats %+v without a store, %+v with one", label, pruned.Prune, stored.Prune)
			}
		}
	}
}

// TestPruneDifferentialOrder2: order-2 campaigns — with and without
// the static screens — are bit-identical to one simulation per pair
// across the whole matrix, and the pruning accounting covers every
// pair.
func TestPruneDifferentialOrder2(t *testing.T) {
	names, modelSets := diffMatrix(t)
	for _, name := range names {
		for _, models := range modelSets {
			label := fmt.Sprintf("%s/%v", name, models)
			c := campaigntest.CaseCampaign(t, name, models, diffMaxFaults)
			want := campaigntest.ReferenceOrder2(t, c, diffMaxPairs)
			opt := campaign.Options{MaxPairs: diffMaxPairs}
			plain, err := campaign.RunOrder2(c, opt)
			if err != nil {
				t.Fatalf("%s: unscreened: %v", label, err)
			}
			campaigntest.AssertOrder2Equal(t, label+" unscreened", want, plain)
			opt.Prune = true
			pruned, err := campaign.RunOrder2Result(c, opt)
			if err != nil {
				t.Fatalf("%s: pruned: %v", label, err)
			}
			campaigntest.AssertOrder2Equal(t, label, want, pruned.Report)
			if pruned.Prune == nil {
				t.Fatalf("%s: pruned run reported no PruneStats", label)
			}
			n := len(want.Solo.Injections) + len(want.Pairs)
			if got := pruned.Prune.Total(); got != n {
				t.Fatalf("%s: prune stats cover %d of %d injections", label, got, n)
			}
		}
	}
}

// TestPruneWorkerShardInvariance: one pruned campaign, many execution
// shapes — 1 worker and 8 workers bit-identical to the per-pair
// reference, and each of 3 shards holding exactly its share of it.
func TestPruneWorkerShardInvariance(t *testing.T) {
	c := campaigntest.CaseCampaign(t, "pincheck", fault.RegisteredModels(), diffMaxFaults)
	baseOpt := campaign.Options{MaxPairs: diffMaxPairs}
	plain := campaigntest.ReferenceOrder2(t, c, diffMaxPairs)
	for _, workers := range []int{1, 8} {
		opt := baseOpt
		opt.Prune = true
		opt.Workers = workers
		pruned, err := campaign.RunOrder2(c, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		campaigntest.AssertOrder2Equal(t, fmt.Sprintf("workers=%d", workers), plain, pruned)
	}
	const n = 3
	for i := 0; i < n; i++ {
		opt := baseOpt
		opt.Prune = true
		opt.Shard = campaign.Shard{Index: i, Count: n}
		rep, err := campaign.RunOrder2(c, opt)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		campaigntest.AssertShard(t, fmt.Sprintf("shard %d/%d", i, n), plain, rep, i, n)
	}
}

// TestPruneWarmStoreReplay: a pruned campaign stored cold matches the
// per-pair reference and replays bit-identically warm — and screened
// and unscreened executions share the plan key, so a warm unscreened
// run is answered by a cold screened one and vice versa.
func TestPruneWarmStoreReplay(t *testing.T) {
	c := campaigntest.CaseCampaign(t, "bootloader", []fault.Model{fault.ModelSkip, fault.ModelRegFlip}, diffMaxFaults)
	st, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := campaign.Options{MaxPairs: diffMaxPairs, Prune: true, Store: st}
	cold, err := campaign.RunOrder2Result(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Misses == 0 {
		t.Fatal("cold pruned run reported no store misses")
	}
	campaigntest.AssertOrder2Equal(t, "cold vs reference", campaigntest.ReferenceOrder2(t, c, diffMaxPairs), cold.Report)
	warm, err := campaign.RunOrder2Result(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "warm replay", cold.Report, warm.Report)
	if warm.Cache.Hits == 0 {
		t.Fatal("warm pruned run reported no store hits")
	}
	// Cross-mode: an unscreened run against the same store replays the
	// screened run's entries — one plan key for both execution modes.
	optPlain := campaign.Options{MaxPairs: diffMaxPairs, Store: st}
	crossed, err := campaign.RunOrder2Result(c, optPlain)
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "cross-mode replay", cold.Report, crossed.Report)
	if crossed.Cache.Hits == 0 {
		t.Fatal("unscreened warm run did not hit the screened run's entries")
	}
}

// TestPruneStaticInertDifferential: the transparent-first-fault
// shortcut (StaticInert) answers pairs without simulating them, and
// pruned reports stay bit-identical to the references that prune
// nothing. The bit-identity half runs on hybrid-hardened catalog
// binaries (NOP spacers, fall-through checks) under the skip models —
// orders 1 and 2 here, order 3 below via direct per-triple validation.
// The firing half needs a pair sweep whose budget reaches a transparent
// first fault's group: plain pincheck under skip + bit flip, where a
// 100-fault cap keeps that group inside the 256-pair budget.
func TestPruneStaticInertDifferential(t *testing.T) {
	models := []fault.Model{fault.ModelSkip, fault.ModelMultiSkip}
	names := []string{"pincheck", "bootloader"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		// Hardening-inserted spacers and fall-through checks sit deeper
		// in the trace than the default differential budget reaches, so
		// this test runs a wider fault cap.
		c := campaigntest.HardenedCampaign(t, name, models, 2*diffMaxFaults)
		plain, err := campaign.Run(c, campaign.Options{})
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", name, err)
		}
		results := campaign.RunAll([]campaign.Job{{Name: name, Campaign: c}}, campaign.Options{Prune: true})
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
		campaigntest.AssertReportsEqual(t, name+" order-1", plain, results[0].Report)

		plain2 := campaigntest.ReferenceOrder2(t, c, diffMaxPairs)
		pruned2, err := campaign.RunOrder2Result(c, campaign.Options{MaxPairs: diffMaxPairs, Prune: true})
		if err != nil {
			t.Fatalf("%s: pruned order-2: %v", name, err)
		}
		campaigntest.AssertOrder2Equal(t, name+" order-2", plain2, pruned2.Report)
	}

	c := campaigntest.CaseCampaign(t, "pincheck", []fault.Model{fault.ModelSkip, fault.ModelBitFlip}, diffMaxFaults/4)
	want := campaigntest.ReferenceOrder2(t, c, diffMaxPairs)
	pruned, err := campaign.RunOrder2Result(c, campaign.Options{MaxPairs: diffMaxPairs, Prune: true})
	if err != nil {
		t.Fatalf("pincheck pruned order-2: %v", err)
	}
	campaigntest.AssertOrder2Equal(t, "pincheck skip+bitflip order-2", want, pruned.Report)
	if pruned.Prune == nil || pruned.Prune.StaticInert == 0 {
		t.Errorf("transparent-first-fault shortcut never fired on the pair sweep (stats %+v)", pruned.Prune)
	}
}

// TestPruneStaticInertOrder3: a pruned order-3 campaign over a
// hardened binary with skip models — every triple outcome re-validated
// by direct simulation, and lower stages bit-identical to the per-pair
// reference.
func TestPruneStaticInertOrder3(t *testing.T) {
	maxTriples := 256
	if testing.Short() {
		maxTriples = 64
	}
	c := campaigntest.HardenedCampaign(t, "pincheck", []fault.Model{fault.ModelSkip, fault.ModelMultiSkip}, diffMaxFaults)
	res, err := campaign.RunOrder3(c, campaign.Options{MaxPairs: diffMaxPairs, MaxTriples: maxTriples})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Triples) == 0 {
		t.Fatal("order-3 campaign enumerated no triples")
	}
	campaigntest.AssertOrder2Equal(t, "hardened order-3 lower stages",
		campaigntest.ReferenceOrder2(t, c, diffMaxPairs), campaigntest.Lower(rep))

	s, err := fault.NewSession(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, ti := range rep.Triples {
		if want := s.SimulateSeq(ti.Triple.Faults()...); ti.Outcome != want {
			t.Fatalf("triple %d (%v): campaign says %v, direct simulation %v",
				i, ti.Triple, ti.Outcome, want)
		}
	}
}

// TestRunOrder3Differential: the pruned order-3 campaign classifies
// every triple exactly as direct per-triple simulation, and its lower
// stages match the per-pair reference.
func TestRunOrder3Differential(t *testing.T) {
	maxTriples := 512
	if testing.Short() {
		maxTriples = 128
	}
	c := campaigntest.CaseCampaign(t, "pincheck", []fault.Model{fault.ModelSkip, fault.ModelBitFlip}, diffMaxFaults)
	res, err := campaign.RunOrder3(c, campaign.Options{MaxPairs: diffMaxPairs, MaxTriples: maxTriples})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Triples) == 0 {
		t.Fatal("order-3 campaign enumerated no triples")
	}
	if res.Prune == nil || res.Prune.Total() == 0 {
		t.Fatal("order-3 campaign reported no pruning accounting")
	}

	campaigntest.AssertOrder2Equal(t, "order-3 lower stages",
		campaigntest.ReferenceOrder2(t, c, diffMaxPairs), campaigntest.Lower(rep))

	s, err := fault.NewSession(c)
	if err != nil {
		t.Fatal(err)
	}
	var tally fault.Tally
	for i, ti := range rep.Triples {
		if want := s.SimulateSeq(ti.Triple.Faults()...); ti.Outcome != want {
			t.Fatalf("triple %d (%v): campaign says %v, direct simulation %v",
				i, ti.Triple, ti.Outcome, want)
		}
		tally[ti.Outcome]++
	}
	if tally != rep.TripleTally {
		t.Fatalf("triple tally %v inconsistent with the %d triples", rep.TripleTally, len(rep.Triples))
	}

	// Warm-store replay of the triple stage.
	st, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := campaign.Options{MaxPairs: diffMaxPairs, MaxTriples: maxTriples, Store: st}
	cold, err := campaign.RunOrder3(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := campaign.RunOrder3(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "order-3 store replay", cold.Report, warm.Report)
	if warm.Cache.Hits == 0 {
		t.Fatal("warm order-3 run reported no store hits")
	}
}
