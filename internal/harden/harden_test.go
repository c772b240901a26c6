package harden

import (
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/patch"
)

// TestEvaluateOrder2: the same order-2 pair campaign runs on the
// original and the Faulter+Patcher binary; hardening against single
// skips must resolve the order-1 successes while the pair stage
// reports the residual multi-fault surface.
func TestEvaluateOrder2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Faulter+Patcher pipeline plus two order-2 campaigns; run without -short")
	}
	c := cases.Pincheck()
	bin := c.MustBuild()
	fp, err := patch.Harden(bin, patch.Options{
		Good: c.Good, Bad: c.Bad, Models: []fault.Model{fault.ModelSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(b *elf.Binary) *campaign.Order2Report {
		rep, err := campaign.RunOrder2(fault.Campaign{
			Binary: b, Good: c.Good, Bad: c.Bad,
			Models: []fault.Model{fault.ModelSkip}, StepLimit: 32 << 20,
		}, campaign.Options{MaxPairs: 500})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	before, after := run(bin), run(fp.Binary)
	if before.Solo.Count(fault.OutcomeSuccess) == 0 {
		t.Error("no order-1 skip successes on the unprotected binary")
	}
	if n := after.Solo.Count(fault.OutcomeSuccess); n != 0 {
		t.Errorf("%d order-1 skip successes remain after hardening", n)
	}
	if len(before.Pairs) == 0 || len(after.Pairs) == 0 {
		t.Fatalf("pair stages empty: before %d, after %d", len(before.Pairs), len(after.Pairs))
	}
	t.Logf("order-2 pairs: before %d/%d successful, after %d/%d successful",
		before.PairCount(fault.OutcomeSuccess), len(before.Pairs),
		after.PairCount(fault.OutcomeSuccess), len(after.Pairs))
}

// TestHybridPincheckBehaviour: the Hybrid output must satisfy the case
// oracle.
func TestHybridPincheckBehaviour(t *testing.T) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	res, err := Hybrid(bin, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(res.Binary); err != nil {
		t.Fatal(err)
	}
	if res.Stats.BranchesProtected == 0 {
		t.Error("no branches protected")
	}
	if res.Overhead() <= 0 {
		t.Error("hybrid overhead not positive")
	}
	t.Logf("pincheck hybrid: %d branches, overhead %.1f%%",
		res.Stats.BranchesProtected, res.Overhead()*100)
}

func TestHybridBootloaderBehaviour(t *testing.T) {
	c := cases.Bootloader()
	bin := c.MustBuild()
	res, err := Hybrid(bin, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(res.Binary); err != nil {
		t.Fatal(err)
	}
	t.Logf("bootloader hybrid: %d branches, overhead %.1f%%",
		res.Stats.BranchesProtected, res.Overhead()*100)
}

// TestHybridLiftLowerOnlyCost measures the §IV-D observation: the mere
// act of lifting and lowering adds overhead before any countermeasure.
func TestHybridLiftLowerOnlyCost(t *testing.T) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	plain, err := Hybrid(bin, HybridOptions{SkipHardening: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(plain.Binary); err != nil {
		t.Fatal(err)
	}
	hardened, err := Hybrid(bin, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Overhead() <= 0 {
		t.Error("lift+lower alone should cost something")
	}
	if hardened.Overhead() <= plain.Overhead() {
		t.Error("hardening should cost more than lift+lower alone")
	}
	t.Logf("lift+lower only: %.1f%%, with countermeasure: %.1f%%",
		plain.Overhead()*100, hardened.Overhead()*100)
}

// TestFaulterPatcherPipeline runs the other pipeline through the facade.
func TestFaulterPatcherPipeline(t *testing.T) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	res, err := patch.Harden(bin, patch.Options{
		Good:   c.Good,
		Bad:    c.Bad,
		Models: []fault.Model{fault.ModelSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged() {
		t.Errorf("skip model did not converge:\n%s", res.Summary())
	}
	if err := c.Check(res.Binary); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicationBaseline checks the §V-C bound: blanket duplication
// costs much more than either targeted pipeline.
func TestDuplicationBaseline(t *testing.T) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	dup, err := patch.HardenAll(bin, patch.StyleFallthrough)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(dup.Binary); err != nil {
		t.Fatalf("duplicated binary misbehaves: %v", err)
	}
	if dup.Patched == 0 {
		t.Fatal("nothing duplicated")
	}
	t.Logf("duplication: %d patched, %d skipped, overhead %.1f%%",
		dup.Patched, dup.Skipped, dup.Overhead()*100)
	if dup.Overhead() < 1.0 {
		t.Errorf("duplication overhead %.1f%% suspiciously low", dup.Overhead()*100)
	}
}

// TestEvaluateSkipResolved reproduces claim C1 end to end through the
// facade: the Hybrid pipeline resolves all instruction-skip
// vulnerabilities of pincheck.
func TestEvaluateSkipResolvedHybrid(t *testing.T) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	res, err := Hybrid(bin, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(bin, res.Binary, c.Good, c.Bad, []fault.Model{fault.ModelSkip}, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ev.SuccessBefore() == 0 {
		t.Fatal("baseline has no skip vulnerabilities")
	}
	if ev.SuccessAfter() != 0 {
		t.Errorf("hybrid left %d skip vulnerabilities (of %d): %v",
			ev.SuccessAfter(), ev.SuccessBefore(), ev.After.Successful())
	}
	if ev.Reduction() != 1.0 {
		t.Errorf("reduction = %.2f, want 1.0", ev.Reduction())
	}
}
