package fault

import (
	"reflect"
	"slices"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
)

func tripleSession(t *testing.T, models ...Model) (*Session, []Injection, []FaultTriple) {
	t.Helper()
	s, solo, _ := pairSession(t, models...)
	return s, solo, EnumerateTriples(solo, 0)
}

// TestEnumerateTriples: triples draw components from detected/ignored
// solo outcomes, are strictly trace-ordered, deterministic, and
// budget-capped as a prefix.
func TestEnumerateTriples(t *testing.T) {
	_, solo, triples := tripleSession(t, ModelSkip)
	if len(triples) == 0 {
		t.Fatal("no triples enumerated")
	}
	eligible := map[Fault]bool{}
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			eligible[inj.Fault] = true
		}
	}
	for _, tr := range triples {
		if !eligible[tr.First] || !eligible[tr.Second] || !eligible[tr.Third] {
			t.Errorf("triple %v uses a non-eligible component", tr)
		}
		if tr.Second.TraceIndex <= tr.First.TraceIndex || tr.Third.TraceIndex <= tr.Second.TraceIndex {
			t.Errorf("triple %v is not strictly trace-ordered", tr)
		}
	}
	if again := EnumerateTriples(solo, 0); !reflect.DeepEqual(triples, again) {
		t.Error("triple enumeration not deterministic")
	}
	capped := EnumerateTriples(solo, 7)
	if len(capped) != 7 {
		t.Errorf("capped enumeration returned %d triples, want 7", len(capped))
	}
	if !reflect.DeepEqual(capped, triples[:7]) {
		t.Error("capped enumeration is not a prefix of the full list")
	}
}

// TestSimulateTripleMatchesColdPath: the snapshot path must classify
// every triple exactly as a cold replay from _start.
func TestSimulateTripleMatchesColdPath(t *testing.T) {
	for _, models := range [][]Model{
		{ModelSkip}, {ModelSkip, ModelRegFlip},
	} {
		s, _, triples := tripleSession(t, models...)
		if len(triples) > 200 {
			triples = triples[:200] // bound the cross-validation cost
		}
		for _, tr := range triples {
			if warm, cold := s.SimulateSeq(tr.Faults()...), s.SimulateCold(tr.Faults()...); warm != cold {
				t.Errorf("%v %v: snapshot path %v, cold path %v", models, tr, warm, cold)
			}
		}
	}
}

// TestExecuteTripleShardBitIdentical: the pruned order-3 tree matches
// per-triple simulation bit for bit, across worker counts and
// shardings, with and without a registered pair sweep to inherit from.
func TestExecuteTripleShardBitIdentical(t *testing.T) {
	s, solo, triples := tripleSession(t, ModelSkip, ModelBitFlip)
	if len(triples) > 600 {
		triples = triples[:600]
	}
	ref, wantTally := referenceSweep(s, triples)
	want := TripleInjections(triples, ref)

	// Bare pruner: no pair outcomes registered, everything classifies
	// via classes or simulation.
	pr := s.NewPairPruner(solo)
	got, tally := s.ExecuteTripleShard(triples, pr, 0, 1, 1, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("pruned triple sweep differs from per-triple simulation")
	}
	if tally != wantTally {
		t.Fatalf("tallies differ: %v vs %v", tally, wantTally)
	}
	if st := pr.Stats(); st.Total() != len(triples) {
		t.Fatalf("prune stats cover %d of %d triples", st.Total(), len(triples))
	}

	// Pruner with the pair sweep registered (the campaign wiring):
	// reference-equal groups now inherit pair outcomes directly.
	pairs := EnumeratePairs(solo, 0)
	pairInj, _ := treeSweep(s, solo, pairs, 0, 1, 0)
	prp := s.NewPairPruner(solo)
	prp.SetPairOutcomes(pairInj)
	got2, _ := s.ExecuteTripleShard(triples, prp, 0, 1, 8, nil)
	if !reflect.DeepEqual(want, got2) {
		t.Fatal("pair-seeded pruned triple sweep differs from per-triple simulation")
	}

	// Shard invariance with a shared pruner.
	const n = 3
	prs := s.NewPairPruner(solo)
	var shards [n][]TripleInjection
	for i := 0; i < n; i++ {
		shards[i], _ = s.ExecuteTripleShard(triples, prs, i, n, 2, nil)
	}
	var merged []TripleInjection
	cursor := [n]int{}
	for j := 0; j < len(want); j++ {
		w := j % n
		merged = append(merged, shards[w][cursor[w]])
		cursor[w]++
	}
	if !reflect.DeepEqual(merged, want) {
		t.Error("recombined triple shards differ from per-triple simulation")
	}
}

// appendSeqs is the reference k-fault enumeration: the walk
// EnumeratePairs and EnumerateTriples make, growing its list by append.
func appendSeqs(solo []Injection, k, max int) [][]Fault {
	var cand []Fault
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			cand = append(cand, inj.Fault)
		}
	}
	var out [][]Fault
	seq := make([]Fault, k)
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
			out = append(out, slices.Clone(seq))
			if len(out) >= max {
				return false
			}
		}
		return true
	}
	walk(0)
	return out
}

// TestEnumerateSeqsMatchAppend: the enumerators count their sequences
// under the cap and fill a list allocated once; the list must equal
// the append-built one — same sequences, same order — for every
// catalog case at orders 2 and 3 under several caps, with no spare
// capacity.
func TestEnumerateSeqsMatchAppend(t *testing.T) {
	for _, c := range cases.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			s, err := NewSession(Campaign{Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad})
			if err != nil {
				t.Fatal(err)
			}
			solo, _ := s.ExecuteShard(0, 1, 0, nil)
			for _, max := range []int{1, 7, 100, DefaultMaxTriples, DefaultMaxPairs, 1 << 16} {
				pairs := EnumeratePairs(solo, max)
				want2 := appendSeqs(solo, 2, max)
				if len(pairs) != len(want2) || cap(pairs) != len(pairs) {
					t.Fatalf("max %d: %d pairs (cap %d), append-built %d", max, len(pairs), cap(pairs), len(want2))
				}
				for i, p := range pairs {
					if p.Faults()[0] != want2[i][0] || p.Faults()[1] != want2[i][1] {
						t.Fatalf("max %d: pair %d is %v, append-built %v", max, i, p, want2[i])
					}
				}
				triples := EnumerateTriples(solo, max)
				want3 := appendSeqs(solo, 3, max)
				if len(triples) != len(want3) || cap(triples) != len(triples) {
					t.Fatalf("max %d: %d triples (cap %d), append-built %d", max, len(triples), cap(triples), len(want3))
				}
				for i, tr := range triples {
					if !slices.Equal(tr.Faults(), want3[i]) {
						t.Fatalf("max %d: triple %d is %v, append-built %v", max, i, tr, want3[i])
					}
				}
			}
		})
	}
}
