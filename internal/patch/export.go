package patch

import (
	"io"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/report"
)

// Export is the machine-readable digest of a Faulter+Patcher run,
// shaped for the CLI's JSON output. Order-2 fields appear only when the
// escalation stage ran.
type Export struct {
	OriginalCodeSize int     `json:"original_code_size"`
	HardenedCodeSize int     `json:"hardened_code_size"`
	OverheadPct      float64 `json:"overhead_pct"`
	Converged        bool    `json:"converged"`

	Iterations []IterationStats `json:"iterations"`

	// Order2 summarizes the escalation stage (absent when the driver
	// ran with Order < 2).
	Order2 *ExportOrder2 `json:"order2,omitempty"`

	// Cache is the cumulative store accounting across every campaign
	// the driver ran.
	Cache campaign.CacheStats `json:"cache"`
}

// ExportOrder2 is the order-2 escalation digest.
type ExportOrder2 struct {
	Iterations       []PairIterationStats `json:"pair_iterations"`
	FinalPairs       int                  `json:"final_pairs"`
	FinalPairSuccess int                  `json:"final_pair_success"`
	Converged        bool                 `json:"pair_converged"`
}

// Export digests the result for machine consumption.
func (r *Result) Export() Export {
	e := Export{
		OriginalCodeSize: r.OriginalCodeSize,
		HardenedCodeSize: r.Binary.CodeSize(),
		OverheadPct:      r.Overhead() * 100,
		Converged:        r.Converged(),
		Iterations:       r.Iterations,
		Cache:            r.Cache,
	}
	if len(r.PairIterations) > 0 {
		o2 := &ExportOrder2{Iterations: r.PairIterations, FinalPairs: len(r.FinalPairs), Converged: r.PairConverged()}
		for _, p := range r.FinalPairs {
			if p.Outcome == fault.OutcomeSuccess {
				o2.FinalPairSuccess++
			}
		}
		e.Order2 = o2
	}
	return e
}

// WriteJSON exports the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	return report.WriteJSON(w, r.Export())
}

// Table renders the iteration history as the standard text table (also
// the CSV source): order-1 rounds first, then any order-2 escalation
// rounds with their pair columns.
func (r *Result) Table() *report.Table {
	tab := &report.Table{
		Title:  "faulter+patcher iterations",
		Header: []string{"stage", "iter", "injections", "successes", "patched", "residual", "text_bytes"},
	}
	for _, it := range r.Iterations {
		tab.AddRow("order-1", itoa(it.Iteration), itoa(it.Injections), itoa(it.Successes),
			itoa(it.Patched), itoa(it.Residual), itoa(it.CodeSize))
	}
	for _, it := range r.PairIterations {
		tab.AddRow("order-2", itoa(it.Iteration), itoa(it.Pairs), itoa(it.Successes),
			itoa(it.Escalated), itoa(it.Residual), itoa(it.CodeSize))
	}
	return tab
}

// WriteCSV exports the iteration table as CSV.
func (r *Result) WriteCSV(w io.Writer) error {
	return r.Table().WriteCSV(w)
}

// itoa is strconv.Itoa without the extra import line noise in Table.
func itoa(n int) string {
	return report.Int(n)
}
