package campaign

import (
	"fmt"
	"io"
	"sort"

	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/report"
)

// SiteSummary is one vulnerable instruction site in machine-readable
// form.
type SiteSummary struct {
	Addr      uint64 `json:"addr"`
	Mnemonic  string `json:"mnemonic"`
	Class     string `json:"class"`
	Successes int    `json:"successes"`
}

// ModelBreakdown is one fault model's share of a campaign. fault.Model
// marshals as its canonical name, so the JSON reads as
// {"model": "register-bit-flip", ...}.
type ModelBreakdown struct {
	Model      fault.Model `json:"model"`
	Injections int         `json:"injections"`
	Success    int         `json:"success"`
	Detected   int         `json:"detected"`
	Crash      int         `json:"crash"`
	Ignored    int         `json:"ignored"`
}

// Order2Summary digests the pair stage of a multi-fault campaign.
type Order2Summary struct {
	Pairs    int `json:"pairs"`
	Success  int `json:"success"`
	Detected int `json:"detected"`
	Crash    int `json:"crash"`
	Ignored  int `json:"ignored"`
}

// Order3Summary digests the triple stage of an order-3 campaign.
type Order3Summary struct {
	Triples  int `json:"triples"`
	Success  int `json:"success"`
	Detected int `json:"detected"`
	Crash    int `json:"crash"`
	Ignored  int `json:"ignored"`
}

// Summary is the machine-readable digest of one campaign, shaped for
// JSON/CSV export and dashboard ingestion. Models and PerModel rely on
// fault.Model's JSON marshaling (string forms) instead of hand-rolled
// stringification.
type Summary struct {
	Name       string           `json:"name,omitempty"`
	Models     []fault.Model    `json:"models"`
	TraceLen   int              `json:"trace_len"`
	Injections int              `json:"injections"`
	Success    int              `json:"success"`
	Detected   int              `json:"detected"`
	Crash      int              `json:"crash"`
	Ignored    int              `json:"ignored"`
	PerModel   []ModelBreakdown `json:"per_model,omitempty"`
	Order2     *Order2Summary   `json:"order2,omitempty"`
	Order3     *Order3Summary   `json:"order3,omitempty"`
	Sites      []SiteSummary    `json:"vulnerable_sites"`
	GoodExit   int              `json:"good_exit"`
	BadExit    int              `json:"bad_exit"`
	ElapsedMS  int64            `json:"elapsed_ms"`

	// Cache reports how the run's work was answered by the
	// content-addressed store (absent when no store was configured).
	Cache *CacheStats `json:"cache,omitempty"`

	// Prune reports how the run's injections were classified by the
	// pruning screens (absent unless Options.Prune asked for it).
	// Execution accounting like Cache: pruning never changes results.
	Prune *fault.PruneStats `json:"prune,omitempty"`
}

// Summarize digests a report for export.
func Summarize(name string, rep *fault.Report) Summary {
	s := Summary{
		Name:       name,
		TraceLen:   rep.Trace.Len(),
		Injections: len(rep.Injections),
		Success:    rep.Count(fault.OutcomeSuccess),
		Detected:   rep.Count(fault.OutcomeDetected),
		Crash:      rep.Count(fault.OutcomeCrash),
		Ignored:    rep.Count(fault.OutcomeIgnored),
		GoodExit:   rep.GoodOracle.ExitCode,
		BadExit:    rep.BadOracle.ExitCode,
	}
	byModel := map[fault.Model]*ModelBreakdown{}
	for _, inj := range rep.Injections {
		b, ok := byModel[inj.Fault.Model]
		if !ok {
			b = &ModelBreakdown{Model: inj.Fault.Model}
			byModel[inj.Fault.Model] = b
			s.Models = append(s.Models, inj.Fault.Model)
		}
		b.Injections++
		switch inj.Outcome {
		case fault.OutcomeSuccess:
			b.Success++
		case fault.OutcomeDetected:
			b.Detected++
		case fault.OutcomeCrash:
			b.Crash++
		case fault.OutcomeIgnored:
			b.Ignored++
		}
	}
	sort.Slice(s.Models, func(i, j int) bool { return s.Models[i].String() < s.Models[j].String() })
	for _, m := range s.Models {
		s.PerModel = append(s.PerModel, *byModel[m])
	}
	for _, site := range rep.VulnerableSites() {
		s.Sites = append(s.Sites, SiteSummary{
			Addr:      site.Addr,
			Mnemonic:  site.Mnemonic,
			Class:     string(fault.Classify(site.Op)),
			Successes: site.Count,
		})
	}
	return s
}

// SummarizeOrder2 digests a multi-fault campaign: the solo sweep
// summary with the pair stage attached, plus the triple stage for an
// order-3 report (even one that enumerated no triples). Counts derive
// from the sequence lists themselves (one pass each), so summaries stay
// correct for any report, not just ones whose tallies the engine
// populated.
func SummarizeOrder2(name string, rep *Order2Report) Summary {
	s := Summarize(name, rep.Solo)
	var t fault.Tally
	for _, p := range rep.Pairs {
		t[p.Outcome]++
	}
	s.Order2 = &Order2Summary{Pairs: len(rep.Pairs), Success: t[fault.OutcomeSuccess],
		Detected: t[fault.OutcomeDetected], Crash: t[fault.OutcomeCrash], Ignored: t[fault.OutcomeIgnored]}
	if rep.Triples != nil {
		t = fault.Tally{}
		for _, tr := range rep.Triples {
			t[tr.Outcome]++
		}
		s.Order3 = &Order3Summary{Triples: len(rep.Triples), Success: t[fault.OutcomeSuccess],
			Detected: t[fault.OutcomeDetected], Crash: t[fault.OutcomeCrash], Ignored: t[fault.OutcomeIgnored]}
	}
	return s
}

// SummaryTable renders a batch of summaries as the standard text table
// (also the source for CSV export). Order-2 summaries grow pair-stage
// columns, so no result is visible in one output format but not
// another.
func SummaryTable(sums []Summary) *report.Table {
	order2, order3, cached, pruned := false, false, false, false
	for _, s := range sums {
		if s.Order2 != nil {
			order2 = true
		}
		if s.Order3 != nil {
			order3 = true
		}
		if s.Cache != nil {
			cached = true
		}
		if s.Prune != nil {
			pruned = true
		}
	}
	tab := &report.Table{
		Title:  "fault campaign results",
		Header: []string{"name", "trace", "injections", "success", "detected", "crash", "ignored", "sites"},
	}
	if order2 {
		tab.Header = append(tab.Header,
			"pairs", "pair_success", "pair_detected", "pair_crash", "pair_ignored")
	}
	if order3 {
		tab.Header = append(tab.Header,
			"triples", "triple_success", "triple_detected", "triple_crash", "triple_ignored")
	}
	if cached {
		tab.Header = append(tab.Header, "cache_hits", "cache_misses", "reused", "resimulated")
	}
	if pruned {
		tab.Header = append(tab.Header, "prune_static", "prune_inert", "prune_ref", "simulated")
	}
	for _, s := range sums {
		row := []string{s.Name,
			fmt.Sprintf("%d", s.TraceLen),
			fmt.Sprintf("%d", s.Injections),
			fmt.Sprintf("%d", s.Success),
			fmt.Sprintf("%d", s.Detected),
			fmt.Sprintf("%d", s.Crash),
			fmt.Sprintf("%d", s.Ignored),
			fmt.Sprintf("%d", len(s.Sites))}
		switch {
		case s.Order2 != nil:
			row = append(row,
				fmt.Sprintf("%d", s.Order2.Pairs),
				fmt.Sprintf("%d", s.Order2.Success),
				fmt.Sprintf("%d", s.Order2.Detected),
				fmt.Sprintf("%d", s.Order2.Crash),
				fmt.Sprintf("%d", s.Order2.Ignored))
		case order2:
			row = append(row, "", "", "", "", "")
		}
		switch {
		case s.Order3 != nil:
			row = append(row,
				fmt.Sprintf("%d", s.Order3.Triples),
				fmt.Sprintf("%d", s.Order3.Success),
				fmt.Sprintf("%d", s.Order3.Detected),
				fmt.Sprintf("%d", s.Order3.Crash),
				fmt.Sprintf("%d", s.Order3.Ignored))
		case order3:
			row = append(row, "", "", "", "", "")
		}
		switch {
		case s.Cache != nil:
			row = append(row,
				fmt.Sprintf("%d", s.Cache.Hits),
				fmt.Sprintf("%d", s.Cache.Misses),
				fmt.Sprintf("%d", s.Cache.Reused),
				fmt.Sprintf("%d", s.Cache.Resimulated))
		case cached:
			row = append(row, "", "", "", "")
		}
		switch {
		case s.Prune != nil:
			row = append(row,
				fmt.Sprintf("%d", s.Prune.StaticDecode),
				fmt.Sprintf("%d", s.Prune.StaticInert),
				fmt.Sprintf("%d", s.Prune.RefEquiv),
				fmt.Sprintf("%d", s.Prune.Simulated))
		case pruned:
			row = append(row, "", "", "", "")
		}
		tab.AddRow(row...)
	}
	return tab
}

// WriteJSON exports summaries as an indented JSON array.
func WriteJSON(w io.Writer, sums []Summary) error {
	return report.WriteJSON(w, sums)
}

// WriteCSV exports the summary table as CSV.
func WriteCSV(w io.Writer, sums []Summary) error {
	return SummaryTable(sums).WriteCSV(w)
}
