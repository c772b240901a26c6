package fault

import (
	"fmt"
	"reflect"
	"testing"
)

// treeDepths are the sequence orders every fault-level tree
// differential runs at: pairs and triples share one engine, so each
// check is driven over both from one table.
var treeDepths = []int{2, 3}

// checkTreeVsCold runs a sequence list through the pruned first-fault
// tree (pr) and requires every outcome, and the tally, to match a cold
// replay of the sequence from _start.
func checkTreeVsCold[T Sequence](t *testing.T, s *Session, pr *PairPruner, items []T) []Outcome {
	t.Helper()
	_, got, tally := ExecuteSequences(s, items, pr, 0, 1, 4, nil)
	var wantTally Tally
	for i, it := range items {
		cold := s.SimulateCold(it.Faults()...)
		wantTally[cold]++
		if got[i] != cold {
			t.Errorf("%v: tree path %v, cold path %v", it, got[i], cold)
		}
	}
	if tally != wantTally {
		t.Errorf("tree tally %v, cold tally %v", tally, wantTally)
	}
	return got
}

// TestPairShardTreeMatchesColdPath: the first-fault snapshot tree is
// the multi-fault engine's execution strategy, so every outcome it
// produces must classify exactly as a cold multi-hook replay from
// _start — at every depth, including multi-skip first faults (whose
// effect window can swallow a later fault's step, forcing the loose
// path), transient bit flips (whose restore fetch extends the horizon
// by one step), register and data flips. At depth 3 the pruner carries
// the depth-2 outcomes, as the campaign wiring does, so reference-equal
// triples inherit them.
func TestPairShardTreeMatchesColdPath(t *testing.T) {
	for _, tc := range []struct {
		name      string
		models    []Model
		transient bool
	}{
		{"skip", []Model{ModelSkip}, false},
		{"bitflip", []Model{ModelBitFlip}, false},
		{"bitflip-transient", []Model{ModelBitFlip}, true},
		{"multiskip+regflip", []Model{ModelMultiSkip, ModelRegFlip}, false},
		{"skip+dataflip", []Model{ModelSkip, ModelDataFlip}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(Campaign{
				Binary: buildMini(t), Good: goodPin, Bad: badPin,
				Models: tc.models, Transient: tc.transient,
			})
			if err != nil {
				t.Fatal(err)
			}
			solo, _ := s.ExecuteShard(0, 1, 0, nil)
			pr := s.NewPairPruner(solo)
			for _, k := range treeDepths {
				t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
					switch k {
					case 2:
						pairs := EnumeratePairs(solo, 300)
						if len(pairs) == 0 {
							t.Skip("no pairs for this model mix")
						}
						pr.SetPairOutcomes(PairInjections(pairs, checkTreeVsCold(t, s, pr, pairs)))
					case 3:
						triples := EnumerateTriples(solo, 300)
						if len(triples) == 0 {
							t.Skip("no triples for this model mix")
						}
						checkTreeVsCold(t, s, pr, triples)
					}
				})
			}
		})
	}
}

// TestPairAdjacentSecondFault pins the loose-path boundary at every
// depth: a sequence whose second fault strikes inside the first's
// effect window (the immediately following step, inside a multi-skip
// window) must still match the cold path even though the snapshot tree
// cannot serve it.
func TestPairAdjacentSecondFault(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelMultiSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, _ := s.ExecuteShard(0, 1, 0, nil)
	// Hand-build adjacent sequences from eligible faults: second fault at
	// the very next trace index, i.e. within the first's skip window.
	var eligible []Fault
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			eligible = append(eligible, inj.Fault)
		}
	}
	var pairs []FaultPair
	var triples []FaultTriple
	for _, a := range eligible {
		for _, b := range eligible {
			if b.TraceIndex != a.TraceIndex+1 {
				continue
			}
			pairs = append(pairs, FaultPair{First: a, Second: b})
			for _, c := range eligible {
				if c.TraceIndex > b.TraceIndex && len(triples) < 100 {
					triples = append(triples, FaultTriple{First: a, Second: b, Third: c})
				}
			}
		}
		if len(pairs) >= 50 {
			break
		}
	}
	if len(pairs) == 0 || len(triples) == 0 {
		t.Skip("no adjacent sequences")
	}
	for _, k := range treeDepths {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			pr := s.NewPairPruner(solo)
			switch k {
			case 2:
				checkTreeVsCold(t, s, pr, pairs)
			case 3:
				checkTreeVsCold(t, s, pr, triples)
			}
		})
	}
}

// TestSimulateRecordConsistent: the recording variant must classify
// exactly like Simulate, report a footprint that includes the fault
// site's page, and be deterministic.
func TestSimulateRecordConsistent(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelSkip, ModelBitFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Faults() {
		rec := s.SimulateRecord(f)
		if got := s.Simulate(f); rec.Outcome != got {
			t.Errorf("%v: SimulateRecord %v, Simulate %v", f, rec.Outcome, got)
		}
		if len(rec.Pages) == 0 {
			t.Fatalf("%v: empty footprint", f)
		}
		sitePage := f.Addr &^ 0xFFF
		found := false
		for _, pa := range rec.Pages {
			if pa == sitePage {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: footprint %x misses the fault site page %#x", f, rec.Pages, sitePage)
		}
		if again := s.SimulateRecord(f); !reflect.DeepEqual(rec, again) {
			t.Errorf("%v: SimulateRecord not deterministic", f)
		}
	}
}
