// Package harden wires the Hybrid countermeasure-insertion pipeline
// end to end (§IV-C, upper half of Fig. 3): lift to IR, apply the
// conditional branch hardening pass — and, with
// HybridOptions.SkipWindow, the order-2 skip-window pass — then lower
// back to a binary. DuplicationIR is its blanket duplication baseline.
// The Faulter+Patcher pipeline and its blanket baseline live in
// internal/patch (Harden, HardenAll).
//
// Evaluate runs the same fault campaign against any binary so the
// pipelines can be compared on equal terms.
package harden

import (
	"fmt"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/ir"
	"github.com/r2r/reinforce/internal/lift"
	"github.com/r2r/reinforce/internal/lower"
	"github.com/r2r/reinforce/internal/passes"
)

// HybridOptions configure the Hybrid pipeline.
type HybridOptions struct {
	// Checksum selects the h function of the branch hardening pass.
	Checksum passes.ChecksumKind

	// SkipHardening runs lift+lower without the countermeasure — the
	// "mere act of lifting the binary and translating it back" cost
	// the paper discusses in §IV-D.
	SkipHardening bool

	// SkipWindow additionally applies the multi-fault-resistant
	// SkipWindowHarden pass after branch hardening: spaced duplicate
	// computations, interleaved step counters, and two-stage validation
	// chains that survive order-2 fault pairs and sustained skip
	// windows (the `-harden order2` pipeline).
	SkipWindow bool

	// SkipCleanup disables the optimization pipelines (ablation).
	SkipCleanup bool

	// Lower passes through code generator ablation switches.
	Lower lower.Options
}

// HybridResult is the outcome of the Hybrid pipeline.
type HybridResult struct {
	Binary *elf.Binary
	Asm    string

	// Module is the hardened IR the binary was lowered from, kept so
	// the static verifier can prove countermeasure invariants on the
	// exact module that produced the artifact.
	Module *ir.Module

	Stats passes.HardenStats

	// SWStats reports the skip-window pass (zero unless
	// HybridOptions.SkipWindow was set).
	SWStats passes.SkipWindowStats

	OriginalCodeSize int
	IRInstsLifted    int // after cleanup, before hardening
	IRInstsHardened  int
}

// Overhead returns the code-size overhead fraction vs the original.
func (r *HybridResult) Overhead() float64 {
	if r.OriginalCodeSize == 0 {
		return 0
	}
	return float64(r.Binary.CodeSize()-r.OriginalCodeSize) / float64(r.OriginalCodeSize)
}

// Hybrid runs the full-translation pipeline (§IV-C): lift to IR, clean
// up, apply conditional branch hardening, clean up again
// (countermeasure-safely), and lower back to an executable.
func Hybrid(bin *elf.Binary, opt HybridOptions) (*HybridResult, error) {
	lr, err := lift.Lift(bin)
	if err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	if !opt.SkipCleanup {
		if err := passes.Run(lr.Module, passes.CleanupPipeline()...); err != nil {
			return nil, fmt.Errorf("harden: %w", err)
		}
	}
	res := &HybridResult{
		OriginalCodeSize: bin.CodeSize(),
		IRInstsLifted:    lr.Module.NumInsts(),
	}
	if !opt.SkipHardening {
		hp := passes.BranchHarden{Checksum: opt.Checksum, Stats: &res.Stats}
		if err := passes.Run(lr.Module, hp); err != nil {
			return nil, fmt.Errorf("harden: %w", err)
		}
		if opt.SkipWindow {
			sw := passes.SkipWindowHarden{Stats: &res.SWStats}
			if err := passes.Run(lr.Module, sw); err != nil {
				return nil, fmt.Errorf("harden: %w", err)
			}
		}
		if !opt.SkipCleanup {
			if err := passes.Run(lr.Module, passes.PostHardenCleanup()...); err != nil {
				return nil, fmt.Errorf("harden: %w", err)
			}
		}
	}
	res.IRInstsHardened = lr.Module.NumInsts()
	res.Module = lr.Module

	low, err := lower.Lower(lr, opt.Lower)
	if err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	res.Binary = low.Binary
	res.Asm = low.Asm
	return res, nil
}

// DuplicationIR runs the duplication baseline on the Hybrid substrate:
// lift, duplicate every computational IR instruction with per-block
// agreement checks, lower. Comparing its output size against the branch
// hardening pass's output isolates the countermeasure cost from the
// rewriter-intrinsic lift/lower overhead (paper §IV-D).
func DuplicationIR(bin *elf.Binary) (*HybridResult, error) {
	lr, err := lift.Lift(bin)
	if err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	if err := passes.Run(lr.Module, passes.CleanupPipeline()...); err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	res := &HybridResult{
		OriginalCodeSize: bin.CodeSize(),
		IRInstsLifted:    lr.Module.NumInsts(),
	}
	if err := passes.Run(lr.Module, passes.DuplicateAll{}); err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	if err := passes.Run(lr.Module, passes.PostHardenCleanup()...); err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	res.IRInstsHardened = lr.Module.NumInsts()
	res.Module = lr.Module
	low, err := lower.Lower(lr, lower.Options{})
	if err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	res.Binary = low.Binary
	res.Asm = low.Asm
	return res, nil
}

// Evaluation compares fault campaigns before and after hardening.
type Evaluation struct {
	Before *fault.Report
	After  *fault.Report
}

// SuccessBefore returns the count of successful faults pre-hardening.
func (e *Evaluation) SuccessBefore() int { return len(e.Before.Successful()) }

// SuccessAfter returns the count of successful faults post-hardening.
func (e *Evaluation) SuccessAfter() int { return len(e.After.Successful()) }

// SitesBefore returns distinct vulnerable sites pre-hardening.
func (e *Evaluation) SitesBefore() int { return len(e.Before.VulnerableSites()) }

// SitesAfter returns distinct vulnerable sites post-hardening.
func (e *Evaluation) SitesAfter() int { return len(e.After.VulnerableSites()) }

// Reduction returns the fraction of successful-fault points removed
// (1.0 = all resolved; the paper reports 1.0 for instruction skip and
// about 0.5 for single bit flips).
func (e *Evaluation) Reduction() float64 {
	if e.SuccessBefore() == 0 {
		return 0
	}
	return 1 - float64(e.SuccessAfter())/float64(e.SuccessBefore())
}

// Evaluate runs the same campaign on the original and hardened binaries
// through the batch engine. EvaluateAgainst avoids re-running the
// baseline when it is already known.
func Evaluate(original, hardened *elf.Binary, good, bad []byte, models []fault.Model, stepLimit uint64) (*Evaluation, error) {
	camp := func(b *elf.Binary) fault.Campaign {
		return fault.Campaign{
			Binary:    b,
			Good:      good,
			Bad:       bad,
			Models:    models,
			StepLimit: stepLimit,
		}
	}
	results := campaign.RunAll([]campaign.Job{
		{Name: "original", Campaign: camp(original)},
		{Name: "hardened", Campaign: camp(hardened)},
	}, campaign.Options{})
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("harden: %s campaign: %w", r.Name, r.Err)
		}
	}
	return &Evaluation{Before: results[0].Report, After: results[1].Report}, nil
}

// EvaluateAgainst compares a memoized baseline report against a fresh
// campaign on the hardened binary — the batch-evaluation fast path when
// many hardened variants share one baseline.
func EvaluateAgainst(before *fault.Report, hardened *elf.Binary, good, bad []byte, models []fault.Model, stepLimit uint64) (*Evaluation, error) {
	after, err := campaign.Run(fault.Campaign{
		Binary:    hardened,
		Good:      good,
		Bad:       bad,
		Models:    models,
		StepLimit: stepLimit,
	}, campaign.Options{})
	if err != nil {
		return nil, fmt.Errorf("harden: hardened campaign: %w", err)
	}
	return &Evaluation{Before: before, After: after}, nil
}
