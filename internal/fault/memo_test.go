package fault

import (
	"errors"
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/isa"
)

// memoSession builds an all-model session on otpauth, whose register
// and data flips hang hundreds of runs until the injection step limit —
// the runs the continuation memo exists for.
func memoSession(t *testing.T, singleStep bool) *Session {
	t.Helper()
	c := cases.OTPAuth()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Campaign{
		Binary: bin, Good: c.Good, Bad: c.Bad,
		Models: RegisteredModels(), SingleStep: singleStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMemoMatchesCold holds memo-answered runs to full cold runs: every
// fault of the sweep, simulated in campaign order so later runs meet the
// states earlier ones published, classifies exactly like SimulateCold —
// on the micro-op fast path and under the single-step interpreter.
func TestMemoMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("cold replay of a full all-model sweep")
	}
	for _, singleStep := range []bool{false, true} {
		s := memoSession(t, singleStep)
		limitRuns := 0
		for _, f := range s.Faults() {
			cold := s.SimulateCold(f)
			if warm := s.Simulate(f); warm != cold {
				t.Errorf("singleStep=%v %v [%s]: memo path %v, cold path %v", singleStep, f, f.Model, warm, cold)
			}
			if s.hangs(f) {
				limitRuns++
			}
		}
		hits := s.memo.hits.Load()
		t.Logf("singleStep=%v: %d faults, %d step-limit runs, %d memo hits, %d entries",
			singleStep, len(s.Faults()), limitRuns, hits, len(s.memo.outcomes))
		if limitRuns == 0 || hits == 0 {
			t.Fatalf("singleStep=%v: vacuous: %d step-limit runs, %d memo hits", singleStep, limitRuns, hits)
		}
	}
}

// hangs reports whether f's cold run is cut by the injection step limit.
func (s *Session) hangs(f Fault) bool {
	cfg := s.config(f)
	cfg.Stdin = s.c.Bad
	m := emu.New(s.c.Binary, cfg)
	_, err := m.Run()
	m.Release()
	return errors.Is(err, emu.ErrStepLimit)
}

// TestMemoWorkerInvariance: which run publishes a state first depends on
// the schedule, the outcomes must not.
func TestMemoWorkerInvariance(t *testing.T) {
	var want []Injection
	for _, workers := range []int{1, 8} {
		s := memoSession(t, false)
		got, _ := s.ExecuteShard(0, 1, workers, nil)
		if s.memo.hits.Load() == 0 {
			t.Fatalf("workers=%d: no memo hits", workers)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: outcomes differ from workers=1", workers)
		}
	}
}

// TestMemoCapOne: a memo capped at one entry stops inserting after it,
// losing reuse but never changing an outcome.
func TestMemoCapOne(t *testing.T) {
	want, _ := memoSession(t, false).ExecuteShard(0, 1, 2, nil)
	s := memoSession(t, false)
	s.memo.cap = 1
	got, _ := s.ExecuteShard(0, 1, 2, nil)
	if n := len(s.memo.outcomes); n != 1 {
		t.Errorf("capped memo holds %d entries, want 1", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a one-entry memo changed the sweep's outcomes")
	}
}

// TestMemoSequencesMatchCold runs a register-flip pair and triple mix
// through the first-fault tree, whose forked continuations and loose
// sequences finish through the memo, against SimulateCold.
func TestMemoSequencesMatchCold(t *testing.T) {
	if testing.Short() {
		t.Skip("cold replay of a multi-fault sweep")
	}
	c := cases.OTPAuth()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Campaign{Binary: bin, Good: c.Good, Bad: c.Bad, Models: []Model{ModelRegFlip}})
	if err != nil {
		t.Fatal(err)
	}
	solo, _ := s.ExecuteShard(0, 1, 2, nil)
	pairs, triples := EnumeratePairs(solo, 4096), EnumerateTriples(solo, 2048)
	if len(pairs) == 0 || len(triples) == 0 {
		t.Fatal("no sequences enumerated")
	}
	before := s.memo.hits.Load()
	pr := s.NewPairPruner(solo)
	_, po, _ := ExecuteSequences(s, pairs, pr, 0, 1, 2, nil)
	pr.SetPairOutcomes(PairInjections(pairs, po))
	_, to, _ := ExecuteSequences(s, triples, pr, 0, 1, 2, nil)
	for i, p := range pairs {
		if cold := s.SimulateCold(p.Faults()...); po[i] != cold {
			t.Errorf("%v: tree %v, cold %v", p, po[i], cold)
		}
	}
	for i, tr := range triples {
		if cold := s.SimulateCold(tr.Faults()...); to[i] != cold {
			t.Errorf("%v: tree %v, cold %v", tr, to[i], cold)
		}
	}
	hits := s.memo.hits.Load() - before
	t.Logf("%d pairs, %d triples, %d memo hits", len(pairs), len(triples), hits)
	if hits == 0 {
		t.Fatal("vacuous: no sequence run was answered from the memo")
	}
}

// TestMemoWaitsForHookWindows: a run is not digested at a grid step
// its hooks can still act after. The late hook below crashes a run at
// the first grid step, where its state still equals that of the same
// fault's hookless run, whose exit the memo already holds.
func TestMemoWaitsForHookWindows(t *testing.T) {
	s := memoSession(t, false)
	at := s.memo.from
	for _, f := range s.Faults() {
		if s.SimulateCold(f) == OutcomeCrash || s.hangs(f) {
			continue
		}
		cfg := s.config(f)
		cfg.Stdin = s.c.Bad
		m := emu.New(s.c.Binary, cfg)
		res, _ := m.Run()
		m.Release()
		if res.Steps <= at {
			continue
		}
		s.SimulateSeq(f) // publishes the exit under its digest at step at
		late := s.config(f)
		late.AddFetchHookWindow(func(m *emu.Machine) {
			if m.Steps == at {
				m.RIP = 0 // unmapped: the fetch faults
			}
		}, at, at+1)
		if got := s.finish(s.checkpointFor(uint64(f.TraceIndex)).Resume(late)); got != OutcomeCrash {
			t.Fatalf("%v with a hook at step %d: outcome %v, want crash", f, at, got)
		}
		return
	}
	t.Fatal("no faulted run exits after the first grid step")
}

// TestMemoSkipsWindowlessHooks: a hook armed for the whole run,
// [0, ^uint64(0)), never becomes inert, so its run neither consults nor
// feeds the memo.
func TestMemoSkipsWindowlessHooks(t *testing.T) {
	s := memoSession(t, false)
	s.ExecuteShard(0, 1, 1, nil)
	entries, hits := len(s.memo.outcomes), s.memo.hits.Load()
	if entries == 0 {
		t.Fatal("sweep published nothing")
	}
	for _, f := range s.Faults() {
		cfg := s.config(f)
		cfg.AddStepHookWindow(func(*emu.Machine, *isa.Inst) emu.StepAction { return emu.ActContinue }, 0, ^uint64(0))
		s.finish(s.checkpointFor(uint64(f.TraceIndex)).Resume(cfg))
	}
	if len(s.memo.outcomes) != entries || s.memo.hits.Load() != hits {
		t.Errorf("whole-run hooks touched the memo: entries %d -> %d, hits %d -> %d",
			entries, len(s.memo.outcomes), hits, s.memo.hits.Load())
	}
}
