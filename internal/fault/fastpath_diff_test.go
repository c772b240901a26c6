package fault

import (
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
)

// TestCampaignFastVsSingleStep holds the whole campaign engine to the
// fast path's parity contract: a campaign run on the predecoded
// micro-op path (the default) must produce a report bit-identical to
// the same campaign forced onto the single-step interpreter — every
// model, every injection, the oracles, and the trace.
func TestCampaignFastVsSingleStep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign sweep")
	}
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range RegisteredModels() {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			camp := Campaign{
				Binary: bin, Good: c.Good, Bad: c.Bad,
				Models: []Model{model}, DedupSites: true,
			}
			fast, err := Run(camp)
			if err != nil {
				t.Fatal(err)
			}
			camp.SingleStep = true
			slow, err := Run(camp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast.GoodOracle, slow.GoodOracle) ||
				!reflect.DeepEqual(fast.BadOracle, slow.BadOracle) {
				t.Fatalf("oracle divergence: fast=%+v/%+v slow=%+v/%+v",
					fast.GoodOracle, fast.BadOracle, slow.GoodOracle, slow.BadOracle)
			}
			if len(fast.Injections) != len(slow.Injections) {
				t.Fatalf("injection count divergence: fast=%d slow=%d",
					len(fast.Injections), len(slow.Injections))
			}
			for i := range fast.Injections {
				if fast.Injections[i] != slow.Injections[i] {
					t.Errorf("injection %d: fast=%+v slow=%+v",
						i, fast.Injections[i], slow.Injections[i])
				}
			}
		})
	}
}

// TestPairSweepFastVsSingleStep extends the parity contract to the
// multi-fault snapshot tree at every depth: pair and triple outcomes
// must not depend on the execution strategy either.
func TestPairSweepFastVsSingleStep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential multi-fault sweep")
	}
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	camp := Campaign{
		Binary: bin, Good: c.Good, Bad: c.Bad,
		Models: []Model{ModelSkip, ModelBitFlip}, DedupSites: true,
	}
	sweep := func(singleStep bool) (pairs, triples []Outcome) {
		camp.SingleStep = singleStep
		s, err := NewSession(camp)
		if err != nil {
			t.Fatal(err)
		}
		solo, _ := s.ExecuteShard(0, 1, 0, nil)
		pl, tl := EnumeratePairs(solo, 256), EnumerateTriples(solo, 256)
		if len(pl) == 0 || len(tl) == 0 {
			t.Fatal("no sequences enumerated")
		}
		pr := s.NewPairPruner(solo)
		_, pairs, _ = ExecuteSequences(s, pl, pr, 0, 1, 0, nil)
		pr.SetPairOutcomes(PairInjections(pl, pairs))
		_, triples, _ = ExecuteSequences(s, tl, pr, 0, 1, 0, nil)
		return pairs, triples
	}
	fastPairs, fastTriples := sweep(false)
	slowPairs, slowTriples := sweep(true)
	for k, cmp := range map[int][2][]Outcome{2: {fastPairs, slowPairs}, 3: {fastTriples, slowTriples}} {
		if !reflect.DeepEqual(cmp[0], cmp[1]) {
			t.Errorf("k=%d: fast and single-step outcomes differ:\nfast=%v\nslow=%v", k, cmp[0], cmp[1])
		}
	}
}

// TestSimulateRecordFastVsSingleStep: footprint-recording runs (patch's
// solo sweeps, the store's cold fill) now take the micro-op fast path
// with the page log kept in the uop loop, and bit-flipped ones keep
// the golden program for the bytes the flip missed. Every fault of
// every catalog case under every registered model must record exactly
// what the single-step interpreter records: outcome, steps, step-limit
// cut and code footprint.
func TestSimulateRecordFastVsSingleStep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential recording sweep")
	}
	for _, c := range cases.All() {
		bin, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range RegisteredModels() {
			camp := Campaign{Binary: bin, Good: c.Good, Bad: c.Bad, Models: []Model{model}}
			fast, err := NewSession(camp)
			if err != nil {
				t.Fatal(err)
			}
			camp.SingleStep = true
			slow, err := NewSession(camp)
			if err != nil {
				t.Fatal(err)
			}
			ff, sf := fast.Faults(), slow.Faults()
			if len(ff) != len(sf) {
				t.Fatalf("%s/%s: %d faults fast, %d single-step", c.Name, model, len(ff), len(sf))
			}
			for i, f := range ff {
				if a, b := fast.SimulateRecord(f), slow.SimulateRecord(sf[i]); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s/%s: fault %+v: fast=%+v single-step=%+v", c.Name, model, f, a, b)
				}
			}
		}
	}
}
