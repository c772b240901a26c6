package fault

import (
	"reflect"
	"testing"
)

// TestPrunerBitIdentical: the static order-1 pruner classifies every
// fault exactly like plain simulation, across model combinations, and
// its accounting covers the whole sweep.
func TestPrunerBitIdentical(t *testing.T) {
	for _, models := range [][]Model{
		{ModelSkip}, {ModelBitFlip}, {ModelSkip, ModelRegFlip, ModelMultiSkip, ModelDataFlip},
	} {
		s, err := NewSession(Campaign{
			Binary: buildMini(t), Good: goodPin, Bad: badPin, Models: models,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain, plainTally := s.ExecuteShard(0, 1, 0, nil)
		pr := s.NewPruner()
		pruned, prunedTally := s.ExecuteShardSim(0, 1, 0, pr.Simulate, nil)
		if !reflect.DeepEqual(plain, pruned) {
			t.Fatalf("%v: pruned order-1 sweep differs from plain", models)
		}
		if plainTally != prunedTally {
			t.Fatalf("%v: tallies differ: %v vs %v", models, plainTally, prunedTally)
		}
		if st := pr.Stats(); st.Total() != len(plain) {
			t.Fatalf("%v: prune stats cover %d of %d faults", models, st.Total(), len(plain))
		}
	}
}

// TestPrunerStaticBudget: with an injection step budget shorter than
// the trace, faults striking at or past the budget are classified as
// crashes without simulation — and identically to simulating them.
func TestPrunerStaticBudget(t *testing.T) {
	mk := func(limit uint64) *Session {
		s, err := NewSession(Campaign{
			Binary: buildMini(t), Good: goodPin, Bad: badPin,
			Models: []Model{ModelSkip}, InjectionStepLimit: limit,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	probe := mk(0)
	limit := uint64(probe.NumFaults()/2 + 1)
	s, ref := mk(limit), mk(limit)
	plain, _ := ref.ExecuteShard(0, 1, 0, nil)
	pr := s.NewPruner()
	pruned, _ := s.ExecuteShardSim(0, 1, 0, pr.Simulate, nil)
	if !reflect.DeepEqual(plain, pruned) {
		t.Fatal("budget-gated sweep differs from plain simulation")
	}
	st := pr.Stats()
	if st.StaticBudget == 0 {
		t.Fatal("no fault hit the static budget gate despite a short budget")
	}
	for _, inj := range pruned {
		if uint64(inj.Fault.TraceIndex) >= limit && inj.Outcome != OutcomeCrash {
			t.Fatalf("fault %v past the budget classified %v, want crash", inj.Fault, inj.Outcome)
		}
	}
}

// TestPrunerStaticDecode: bit-flip sweeps route undecodable encodings
// through the lifted pre-screen, and the pruner counts them.
func TestPrunerStaticDecode(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin, Models: []Model{ModelBitFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := s.NewPruner()
	s.ExecuteShardSim(0, 1, 0, pr.Simulate, nil)
	if pr.Stats().StaticDecode == 0 {
		t.Fatal("bit-flip sweep produced no decode pre-screen classifications")
	}
}

// TestPrunerRecordBitIdentical: the recording pruner path produces the
// same evidence records as SimulateRecord for every fault.
func TestPrunerRecordBitIdentical(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelSkip, ModelBitFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := s.NewPruner()
	for _, f := range s.Faults() {
		plain := s.SimulateRecord(f)
		pruned := pr.SimulateRecord(f)
		if !reflect.DeepEqual(plain, pruned) {
			t.Fatalf("fault %v: pruned record differs from plain", f)
		}
	}
	if st := pr.Stats(); st.Total() != s.NumFaults() {
		t.Fatalf("prune stats cover %d of %d faults", st.Total(), s.NumFaults())
	}
}

// TestExecutePairShardPrunedBitIdentical: the equivalence-pruned pair
// sweep is bit-identical to one simulation per pair across model
// combinations, worker counts, and shardings — and the pruner's
// accounting covers every pair.
func TestExecutePairShardPrunedBitIdentical(t *testing.T) {
	for _, models := range [][]Model{
		{ModelSkip}, {ModelBitFlip}, {ModelSkip, ModelRegFlip}, {ModelMultiSkip, ModelDataFlip},
	} {
		s, solo, pairs := pairSession(t, models...)
		ref, plainTally := referenceSweep(s, pairs)
		plain := PairInjections(pairs, ref)

		pr := s.NewPairPruner(solo)
		pruned, prunedTally := s.ExecutePairShardPruned(pairs, pr, 0, 1, 1, nil)
		if !reflect.DeepEqual(plain, pruned) {
			t.Fatalf("%v: pruned pair sweep differs from per-pair simulation", models)
		}
		if plainTally != prunedTally {
			t.Fatalf("%v: tallies differ: %v vs %v", models, plainTally, prunedTally)
		}
		if st := pr.Stats(); st.Total() != len(pairs) {
			t.Fatalf("%v: prune stats cover %d of %d pairs", models, st.Total(), len(pairs))
		}

		// Worker invariance on a fresh pruner (classes are discovered in
		// a different order under contention; outcomes must not care).
		pr8 := s.NewPairPruner(solo)
		par, parTally := s.ExecutePairShardPruned(pairs, pr8, 0, 1, 8, nil)
		if !reflect.DeepEqual(plain, par) {
			t.Fatalf("%v: 8-worker pruned sweep differs", models)
		}
		if plainTally != parTally {
			t.Fatalf("%v: 8-worker tally differs", models)
		}
		if st := pr8.Stats(); st.Total() != len(pairs) {
			t.Fatalf("%v: 8-worker prune stats cover %d of %d pairs", models, st.Total(), len(pairs))
		}

		// Shard invariance: shards share one pruner (as one campaign
		// execution does) and recombine to the unsharded run.
		const n = 3
		prs := s.NewPairPruner(solo)
		var shards [n][]PairInjection
		for i := 0; i < n; i++ {
			shards[i], _ = s.ExecutePairShardPruned(pairs, prs, i, n, 2, nil)
		}
		var merged []PairInjection
		cursor := [n]int{}
		for j := 0; j < len(plain); j++ {
			w := j % n
			merged = append(merged, shards[w][cursor[w]])
			cursor[w]++
		}
		if !reflect.DeepEqual(merged, plain) {
			t.Fatalf("%v: recombined pruned shards differ from the unsharded run", models)
		}
	}
}

// TestPairPrunerInheritance: the pruned sweep actually inherits — on
// the mini pincheck some skip pairs re-converge to the reference state
// (idempotent or dead skips), so the sweep must report reference- or
// class-equivalence savings, not classify everything by simulation.
func TestPairPrunerInheritance(t *testing.T) {
	s, solo, pairs := pairSession(t, ModelSkip, ModelBitFlip)
	pr := s.NewPairPruner(solo)
	s.ExecutePairShardPruned(pairs, pr, 0, 1, 0, nil)
	st := pr.Stats()
	if st.RefEquiv+st.ClassEquiv == 0 {
		t.Fatalf("no pair inherited an outcome (stats %+v)", st)
	}
	if st.Simulated >= len(pairs) {
		t.Fatalf("pruner simulated all %d pairs (stats %+v)", len(pairs), st)
	}
}
