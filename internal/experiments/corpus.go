// The corpus experiment: the paper's evaluation, scaled from two
// hand-picked programs to the full registered case-study corpus, run as
// one batched cache-sharing sweep (campaign.RunCorpus). This is the
// evaluation shape the tool-assisted methodology papers ask for —
// hardening claims checked across a program corpus under one attacker
// model — and the numbers show where the paper's countermeasures hold
// up and where richer workloads (the CRT-RSA-style sign-then-verify,
// the anti-rollback updater) leave residual surface.
package experiments

import (
	"fmt"
	"math"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/report"
	"github.com/r2r/reinforce/internal/static"
)

// corpusMaxPairs bounds the order-2 pair stage per corpus cell, like
// beyondMaxPairs does for the beyond tables.
const corpusMaxPairs = 1024

// CorpusData is the survival census of one (case, pipeline) pair under
// the corpus sweep: the paper's two fault models at order 1, plus the
// order-2 pair stage, site-deduplicated.
type CorpusData struct {
	Case     string
	Pipeline string

	Injections int
	Success    int
	Detected   int

	Pairs       int
	PairSuccess int

	// SurvivalPct is the share of injections the binary survived
	// (everything but a successful fault), the corpus headline number.
	SurvivalPct float64

	// OverheadPct is the pipeline's code-size price (0 for baseline).
	OverheadPct float64

	// VerifyFindings is the static check-coverage verdict on the swept
	// binary: 0 means the verifier proved every fault-response-free
	// exit guarded (all hardened rows, plus crtsign's baseline — its
	// source embeds sign-then-verify), nonzero counts the violations.
	VerifyFindings int
}

// TableCorpus regenerates the corpus table: baseline vs Faulter+Patcher
// vs Hybrid across every registered case study, swept at order 1 (skip
// + bit flip) and order 2 (fault pairs) as one batched, cache-sharing
// corpus run. Results are deterministic — bit-identical across worker
// counts (test-enforced via tableCorpus).
func TableCorpus() (*report.Table, []CorpusData, error) {
	return tableCorpus(campOptions(corpusMaxPairs))
}

// tableCorpus is TableCorpus with the campaign options exposed, so the
// determinism test can pin worker counts against private stores.
func tableCorpus(opt campaign.Options) (*report.Table, []CorpusData, error) {
	var jobs []campaign.CorpusJob
	type rowKey struct {
		pipeline string
		overhead float64
		verify   int
	}
	keys := make([]rowKey, 0, 3*len(cases.Names()))
	for _, c := range cases.Corpus() {
		fp, err := memo.fpFor(c, bothModels)
		if err != nil {
			return nil, nil, err
		}
		hy, err := memo.hybridFor(c)
		if err != nil {
			return nil, nil, err
		}
		variants := []struct {
			name     string
			bin      *elf.Binary
			overhead float64
		}{
			{"original", c.MustBuild(), 0},
			{"faulter+patcher", fp.Binary, fp.Overhead()},
			{"hybrid", hy.Binary, hy.Overhead()},
		}
		for _, v := range variants {
			an, err := static.Analyze(v.bin)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s: static analysis: %w", c.Name, v.name, err)
			}
			jobs = append(jobs, campaign.CorpusJob{
				Case: c.Name,
				Campaign: fault.Campaign{
					Binary: v.bin, Good: c.Good, Bad: c.Bad,
					Models: bothModels, StepLimit: stepLimit, DedupSites: true,
				},
			})
			keys = append(keys, rowKey{pipeline: v.name, overhead: v.overhead,
				verify: len(an.CheckCoverage())})
		}
	}

	res, err := campaign.RunCorpus(jobs, campaign.CorpusOptions{
		Options: opt,
		Orders:  []int{1, 2},
		// Distinct cases run concurrently on one shared worker pool;
		// results are bit-identical to the sequential sweep.
		ParallelCells: 3,
	})
	if err != nil {
		return nil, nil, err
	}
	if errs := res.Errs(); len(errs) > 0 {
		return nil, nil, errs[0]
	}

	tab := &report.Table{
		Title: "Corpus — baseline vs F+P vs Hybrid across the full case-study corpus (successful/total)",
		Header: []string{"case study", "pipeline", "order-1 faults", "skip+flip pairs (order 2)",
			"survival", "overhead", "static verify"},
	}
	var out []CorpusData
	totals := map[string]*CorpusData{}
	var pipelineOrder []string
	// Cells arrive in job order, two per job (order 1, then order 2).
	for i, key := range keys {
		o1 := res.Results[2*i]
		o2 := res.Results[2*i+1]
		d := CorpusData{
			Case:           o1.Case,
			Pipeline:       key.pipeline,
			Injections:     len(o1.Report.Injections),
			Success:        o1.Report.Count(fault.OutcomeSuccess),
			Detected:       o1.Report.Count(fault.OutcomeDetected),
			Pairs:          len(o2.Order2.Pairs),
			PairSuccess:    o2.Order2.PairCount(fault.OutcomeSuccess),
			OverheadPct:    key.overhead * 100,
			VerifyFindings: key.verify,
		}
		d.SurvivalPct = survivalPct(d.Success, d.Injections)
		out = append(out, d)
		tab.AddRow(d.Case, d.Pipeline,
			fmt.Sprintf("%d/%d", d.Success, d.Injections),
			fmt.Sprintf("%d/%d", d.PairSuccess, d.Pairs),
			pctFloor(d.SurvivalPct), report.Pct(d.OverheadPct), verifyCell(d.VerifyFindings))
		tot, ok := totals[key.pipeline]
		if !ok {
			tot = &CorpusData{Case: "corpus", Pipeline: key.pipeline}
			totals[key.pipeline] = tot
			pipelineOrder = append(pipelineOrder, key.pipeline)
		}
		tot.Injections += d.Injections
		tot.Success += d.Success
		tot.Detected += d.Detected
		tot.Pairs += d.Pairs
		tot.PairSuccess += d.PairSuccess
		tot.VerifyFindings += d.VerifyFindings
	}
	for _, p := range pipelineOrder {
		tot := totals[p]
		tot.SurvivalPct = survivalPct(tot.Success, tot.Injections)
		out = append(out, *tot)
		tab.AddRow(tot.Case, tot.Pipeline,
			fmt.Sprintf("%d/%d", tot.Success, tot.Injections),
			fmt.Sprintf("%d/%d", tot.PairSuccess, tot.Pairs),
			pctFloor(tot.SurvivalPct), "", verifyCell(tot.VerifyFindings))
	}
	tab.AddNote(fmt.Sprintf(
		"one shared store across all %d campaigns: %d hits / %d misses",
		len(res.Results), res.Cache.Hits, res.Cache.Misses))
	tab.AddNote("both pipelines cut the corpus-wide successful-fault count; the richer cases (fwupdate, crtsign) keep residual surface the paper's pair never showed")
	tab.AddNote("static verify proves check coverage, not fault immunity: crtsign's built-in sign-then-verify already passes it, yet data faults still slip through")
	return tab, out, nil
}

// survivalPct is the share of injections that did not become a
// successful fault.
func survivalPct(success, injections int) float64 {
	if injections == 0 {
		return 100
	}
	return 100 * float64(injections-success) / float64(injections)
}

// verifyCell renders the static check-coverage verdict for one row.
func verifyCell(findings int) string {
	if findings == 0 {
		return "clean"
	}
	return fmt.Sprintf("%d finding(s)", findings)
}

// pctFloor renders a percentage floored at two decimals, so a row with
// any successful faults can never round up to a deceptive "100.00%".
func pctFloor(p float64) string {
	return fmt.Sprintf("%.2f%%", math.Floor(p*100)/100)
}
