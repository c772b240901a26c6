// Case-level orchestration: harden a catalog case through a named
// pipeline and differentially check the result — the engine behind
// `r2r oracle`.
package oracle

import (
	"fmt"
	"time"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
	"github.com/r2r/reinforce/internal/patch"
)

// Hardening pipelines the oracle can drive (the `r2r oracle -harden`
// values).
const (
	PipelineHybrid = "hybrid" // Hybrid lift/lower with branch hardening
	PipelineOrder2 = "order2" // Hybrid plus the skip-window pass
	PipelinePatch  = "patch"  // Faulter+Patcher fixed point
)

// Harden builds the case and runs it through the named pipeline,
// returning the hardened binary.
func Harden(c *cases.Case, pipeline string) (*elf.Binary, error) {
	bin, err := c.Build()
	if err != nil {
		return nil, err
	}
	switch pipeline {
	case PipelineHybrid:
		res, err := harden.Hybrid(bin, harden.HybridOptions{})
		if err != nil {
			return nil, err
		}
		return res.Binary, nil
	case PipelineOrder2:
		res, err := harden.Hybrid(bin, harden.HybridOptions{SkipWindow: true})
		if err != nil {
			return nil, err
		}
		return res.Binary, nil
	case PipelinePatch:
		res, err := patch.Harden(bin, patch.Options{
			Good:      c.Good,
			Bad:       c.Bad,
			Models:    []fault.Model{fault.ModelSkip, fault.ModelBitFlip},
			StepLimit: DefaultStepLimit,
		})
		if err != nil {
			return nil, err
		}
		return res.Binary, nil
	}
	return nil, fmt.Errorf("oracle: unknown pipeline %q: want %s, %s or %s",
		pipeline, PipelineHybrid, PipelineOrder2, PipelinePatch)
}

// CaseReport is the export-ready outcome of one case's differential
// check: the case, the pipeline that hardened it, the hardened binary's
// content address, and the divergence census.
type CaseReport struct {
	Case           string       `json:"case"`
	Pipeline       string       `json:"pipeline"`
	Variant        bool         `json:"variant,omitempty"` // fuzz-derived, not a catalog entry
	HardenedDigest string       `json:"hardened_digest"`
	Inputs         int          `json:"inputs"`
	Divergences    int          `json:"divergences"`
	Divergent      []Divergence `json:"divergent,omitempty"`
	Truncated      bool         `json:"divergent_truncated,omitempty"`
	ElapsedMS      int64        `json:"elapsed_ms"`
}

// RunCase hardens the case through the pipeline and differences the
// result against the original across n generated inputs.
func RunCase(c *cases.Case, pipeline string, n int, seed uint64, opt Options) (*CaseReport, error) {
	start := time.Now() //lint:allow wallclock (ElapsedMS is reporting-only, stripped before determinism comparisons)
	orig, err := c.Build()
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", c.Name, err)
	}
	hard, err := Harden(c, pipeline)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", c.Name, err)
	}
	rep := Diff(orig, hard, CaseInputs(c, n, seed), opt)
	return &CaseReport{
		Case:           c.Name,
		Pipeline:       pipeline,
		HardenedDigest: hard.Digest(),
		Inputs:         rep.Inputs,
		Divergences:    rep.Divergences,
		Divergent:      rep.Divergent,
		Truncated:      rep.Truncated,
		ElapsedMS:      time.Since(start).Milliseconds(),
	}, nil
}
