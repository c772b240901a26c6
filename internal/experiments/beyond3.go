package experiments

import (
	"fmt"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/report"
)

// beyond3MaxTriples caps each order-3 campaign of the beyond3 table.
// The unpruned triple space is cubic; the cap keeps the table a
// regenerate-on-every-run experiment while still exercising thousands
// of triples per variant.
const beyond3MaxTriples = 1024

// Beyond3Data is the order-3 census of one case/pipeline cell.
type Beyond3Data struct {
	Case     string
	Pipeline string

	Pairs       int
	PairSuccess int

	Triples       int
	TripleSuccess int
	TripleDetect  int

	// Pruned/Simulated split the campaign's injections (all orders) by
	// how the equivalence pruner classified them.
	Pruned    int
	Simulated int
}

// PrunedPct is the share of injections answered without simulation.
func (d Beyond3Data) PrunedPct() float64 {
	total := d.Pruned + d.Simulated
	if total == 0 {
		return 0
	}
	return 100 * float64(d.Pruned) / float64(total)
}

// TableBeyond3 pushes the multi-fault evaluation past the paper's
// order: a budget-capped order-3 campaign (fault triples) on both
// paper case studies, at the attack order the order-2 tables stop at.
// The sweep is only tractable because of the fault-equivalence pruning
// pass — the table therefore also reports how much of each campaign
// the pruner answered statically or by state-equivalence inheritance
// (the ARMORY scaling argument, measured).
//
// Pipelines, per case study: the unhardened baseline, the single-fault
// Faulter+Patcher fixed point, and the order-2-hardened hybrid
// (branch hardening + skip-window pass) — does hardening against
// orders 1-2 also shrink the order-3 surface, and what survives it?
//
// Campaigns run the skip model, site-deduplicated, with the pair
// budget at beyond2MaxPairs and the triple budget at beyond3MaxTriples.
// Results are deterministic and — pruned or not — bit-identical, the
// property the differential harness in internal/campaign enforces.
func TableBeyond3() (*report.Table, []Beyond3Data, error) {
	tab := &report.Table{
		Title: "Beyond the paper — budget-capped order-3 campaigns via equivalence pruning (successful/total)",
		Header: []string{"case study", "pipeline", "skip pairs (order 2)",
			"skip triples (order 3)", "pruned"},
	}
	var out []Beyond3Data
	skipOnly := []fault.Model{fault.ModelSkip}
	for _, c := range cases.All() {
		fp, err := memo.fpFor(c, skipOnly)
		if err != nil {
			return nil, nil, err
		}
		hySW, err := memo.hybridSWFor(c)
		if err != nil {
			return nil, nil, err
		}
		variants := []struct {
			name string
			bin  *elf.Binary
		}{
			{"original", c.MustBuild()},
			{"f+p", fp.Binary},
			{"hybrid+skipwindow", hySW.Binary},
		}
		for _, v := range variants {
			camp := fault.Campaign{
				Binary: v.bin, Good: c.Good, Bad: c.Bad, Models: skipOnly,
				StepLimit: stepLimit, DedupSites: true,
			}
			opt := campOptions(beyond2MaxPairs)
			opt.MaxTriples = beyond3MaxTriples
			res, err := campaign.RunOrder3(camp, opt)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s order-3 campaign: %w", c.Name, v.name, err)
			}
			rep := res.Report
			d := Beyond3Data{
				Case: c.Name, Pipeline: v.name,
				Pairs:         len(rep.Pairs),
				PairSuccess:   rep.PairCount(fault.OutcomeSuccess),
				Triples:       len(rep.Triples),
				TripleSuccess: rep.TripleCount(fault.OutcomeSuccess),
				TripleDetect:  rep.TripleCount(fault.OutcomeDetected),
			}
			if res.Prune != nil {
				d.Pruned = res.Prune.Pruned()
				d.Simulated = res.Prune.Simulated
			}
			out = append(out, d)
			tab.AddRow(c.Name, v.name,
				fmt.Sprintf("%d/%d", d.PairSuccess, d.Pairs),
				fmt.Sprintf("%d/%d", d.TripleSuccess, d.Triples),
				report.Pct(d.PrunedPct()))
		}
	}
	tab.AddNote(fmt.Sprintf("triple budget %d per variant; 'pruned' is the share of injections classified without simulation (decode pre-screen, transparent first faults, and states that re-converge to the reference run), the reduction that makes order 3 tractable (ARMORY, Boespflug et al.)", beyond3MaxTriples))
	return tab, out, nil
}
