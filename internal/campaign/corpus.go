// Corpus runner: one batched, cache-sharing campaign sweep across a
// whole case-study corpus. Where RunAll sweeps many binaries under one
// campaign shape, RunCorpus fans out the full (case × model × order)
// matrix the way the evaluation methodology papers ask for — every
// program of the corpus attacked under the same attacker model — while
// sharing one content-addressed Store, so repeated structure (the
// order-2 solo sweep of a case already swept at order 1, a warm
// re-run) is answered from cache instead of re-simulated.
//
// Cells are grouped into per-case chains (the store's order-over-order
// reuse follows a case's job order, so a chain runs sequentially); with
// ParallelCells > 1 the chains run concurrently on one shared
// fault.WorkerPool whose budget is Options.Workers: each cell stage
// submits one batch, and a batch that runs dry hands its slots to the
// others' tails. Results are deterministic either way — every cell lands at its fixed position in
// Results, and every constituent campaign is bit-identical across
// worker counts, chunking, slot handoffs, and store replay — so the
// parallel sweep's reports match the sequential runner's bit for bit.
package campaign

import (
	"fmt"
	"sync"
	"time"

	"github.com/r2r/reinforce/internal/fault"
)

// CorpusJob names one case study (or hardened variant) of a corpus
// sweep. Jobs with the same Case name form one chain and run in input
// order.
type CorpusJob struct {
	Case     string
	Campaign fault.Campaign
}

// CorpusOptions tune a corpus run.
type CorpusOptions struct {
	// Options carries the per-campaign knobs (Workers, MaxPairs,
	// MaxTriples, Store, Progress). With a nil Store, RunCorpus creates
	// a private in-memory store for the run, so cross-campaign sharing
	// works out of the box; pass a disk-backed store (`r2r corpus
	// -cache-dir`) to persist it. Progress is remapped to corpus-wide
	// job numbering: one job per (case, order) pair, monotonic per cell
	// even when cells interleave. With ParallelCells > 1, Workers is
	// the *global* simulation budget shared by every concurrent cell.
	Options

	// Orders lists the fault orders swept per case, in order (default
	// {1}; 1, 2, and 3 are valid — order 3 is budget-capped and forces
	// the static pruning screens on, see RunOrder3). An order-2 sweep
	// stores and reuses its order-1 stage under the same plan key as a
	// plain order-1 run, so Orders {1, 2} answers the second solo sweep
	// from the store;
	// an order-3 sweep likewise reuses the order-2 cell's pair stage
	// when the pair budgets match.
	Orders []int

	// ParallelCells bounds how many case chains execute concurrently
	// (<= 1: strictly sequential, the historical behavior). The cells
	// of one case always run in sequence — a higher order answers its
	// lower stages from the earlier cells' entries — so the bound is
	// over distinct cases. All concurrent cells share one
	// fault.WorkerPool of Options.Workers workers.
	ParallelCells int
}

// CorpusCaseResult is one (case, order) cell of a corpus run.
type CorpusCaseResult struct {
	Case  string
	Order int

	Report  *fault.Report // the order-1 sweep (Order2.Solo for orders 2/3)
	Order2  *Order2Report // multi-fault stages (triples too for order 3); nil for order-1 cells
	Summary Summary       // export-ready digest (Name is "case/oN")
	Elapsed time.Duration
	Cache   CacheStats
	Prune   *fault.PruneStats // pruning accounting; nil unless Options.Prune
	Err     error             // the cell failed; other cells continue
}

// CorpusResult is the outcome of a corpus run.
type CorpusResult struct {
	Results []CorpusCaseResult

	// Cache aggregates every cell's store accounting — the numbers that
	// prove cross-campaign sharing happened (or did not).
	Cache CacheStats
}

// corpusChain is the unit of corpus concurrency: the consecutive cells
// of one case, executed in order so the order-over-order store reuse
// sees their predecessors.
type corpusChain struct {
	jobs  []CorpusJob
	cells []int // Results index of each (job, order) cell, job-major
}

// RunCorpus executes the corpus sweep: every job at every order,
// sharing one store. Cell numbering — and the Results slice — is
// always job-major in input order, identical for sequential and
// parallel runs. A failing cell records its error and
// the sweep continues.
func RunCorpus(jobs []CorpusJob, opt CorpusOptions) (*CorpusResult, error) {
	orders := opt.Orders
	if len(orders) == 0 {
		orders = []int{1}
	}
	for _, o := range orders {
		if o != 1 && o != 2 && o != 3 {
			return nil, fmt.Errorf("campaign: unsupported corpus order %d: want 1, 2 or 3", o)
		}
	}
	if opt.Store == nil {
		st, err := NewStore("")
		if err != nil {
			return nil, err
		}
		opt.Store = st
	}

	// Group the jobs into per-case chains, preserving first-appearance
	// order and each case's job order. Cell indices stay job-major.
	var chains []*corpusChain
	chainOf := map[string]*corpusChain{}
	for j, job := range jobs {
		ch, ok := chainOf[job.Case]
		if !ok {
			ch = &corpusChain{}
			chainOf[job.Case] = ch
			chains = append(chains, ch)
		}
		ch.jobs = append(ch.jobs, job)
		for o := range orders {
			ch.cells = append(ch.cells, j*len(orders)+o)
		}
	}

	parallel := opt.ParallelCells
	if parallel > len(chains) {
		parallel = len(chains)
	}
	if parallel > 1 {
		// All concurrent cells draw from one worker budget; slots a
		// finished stage frees go to the stragglers' batches.
		opt.pool = fault.NewWorkerPool(opt.Workers)
		// Options.Progress promises serialized delivery; with chains
		// interleaving, serialize here (per-cell monotonicity is
		// progressFunc's, which each cell stage owns privately).
		if opt.Progress != nil {
			var mu sync.Mutex
			inner := opt.Progress
			opt.Progress = func(p Progress) {
				mu.Lock()
				defer mu.Unlock()
				inner(p)
			}
		}
	}

	res := &CorpusResult{Results: make([]CorpusCaseResult, len(jobs)*len(orders))}
	if parallel > 1 {
		sem := make(chan struct{}, parallel)
		var wg sync.WaitGroup
		for _, ch := range chains {
			wg.Add(1)
			go func(ch *corpusChain) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				runChain(ch, orders, opt, res.Results)
			}(ch)
		}
		wg.Wait()
	} else {
		for _, ch := range chains {
			runChain(ch, orders, opt, res.Results)
		}
	}
	for i := range res.Results {
		if res.Results[i].Err == nil {
			res.Cache.Add(res.Results[i].Cache)
		}
	}
	return res, nil
}

// runChain executes one case chain's cells in order, reusing one
// fault.Session across the orders of each job (construction replays
// the golden runs — once per binary, not once per cell). Each cell
// writes its result at its fixed job-major index, so interleaved
// chains never perturb merge order.
func runChain(ch *corpusChain, orders []int, opt CorpusOptions, results []CorpusCaseResult) {
	cells := len(results)
	cell := 0
	for _, job := range ch.jobs {
		jobOpt := opt.Options
		var cached *fault.Session
		jobOpt.newSession = func(c fault.Campaign) (*fault.Session, error) {
			if cached != nil {
				return cached, nil
			}
			s, err := fault.NewSession(c)
			if err != nil {
				return nil, err
			}
			cached = s
			return s, nil
		}
		for _, order := range orders {
			idx := ch.cells[cell]
			cell++
			name := fmt.Sprintf("%s/o%d", job.Case, order)
			start := time.Now() //lint:allow wallclock (ElapsedMS is reporting-only, stripped before determinism comparisons)
			out := CorpusCaseResult{Case: job.Case, Order: order}
			switch order {
			case 1:
				r, err := runSolo(name, idx, cells, job.Campaign, jobOpt)
				if err != nil {
					out.Err = err
					break
				}
				out.Report = r.Report
				out.Cache = r.Cache
				out.Prune = r.Prune
				out.Summary = Summarize(name, r.Report)
			default:
				r, err := runOrder(name, idx, cells, order, job.Campaign, jobOpt)
				if err != nil {
					out.Err = err
					break
				}
				out.Report = r.Report.Solo
				out.Order2 = r.Report
				out.Cache = r.Cache
				out.Prune = r.Prune
				out.Summary = SummarizeOrder2(name, r.Report)
			}
			out.Elapsed = time.Since(start)
			if out.Err == nil {
				cache := out.Cache
				out.Summary.Cache = &cache
				if out.Prune != nil {
					prune := *out.Prune
					out.Summary.Prune = &prune
				}
				out.Summary.ElapsedMS = out.Elapsed.Milliseconds()
			}
			results[idx] = out
		}
	}
}

// Summaries returns the per-cell summaries of the successful cells,
// followed by the corpus-wide aggregate row. ElapsedMS is included per
// cell; the caller can zero it for bit-stable exports.
func (r *CorpusResult) Summaries() []Summary {
	var out []Summary
	for _, c := range r.Results {
		if c.Err == nil {
			out = append(out, c.Summary)
		}
	}
	out = append(out, r.Aggregate())
	return out
}

// Aggregate folds every successful cell into one corpus-wide survival
// row: total injections and outcome counts (TraceLen is the summed
// trace length — a corpus size measure, not one program's), the
// pair/triple stage totals when any cell ran order 2 or 3, and the
// shared-cache accounting.
func (r *CorpusResult) Aggregate() Summary {
	agg := Summary{Name: "corpus"}
	models := map[fault.Model]bool{}
	var o2 Order2Summary
	var o3 Order3Summary
	var prune fault.PruneStats
	hasO2, hasO3, hasPrune := false, false, false
	for _, c := range r.Results {
		if c.Err != nil {
			continue
		}
		s := c.Summary
		agg.TraceLen += s.TraceLen
		agg.Injections += s.Injections
		agg.Success += s.Success
		agg.Detected += s.Detected
		agg.Crash += s.Crash
		agg.Ignored += s.Ignored
		for _, m := range s.Models {
			if !models[m] {
				models[m] = true
				agg.Models = append(agg.Models, m)
			}
		}
		if s.Order2 != nil {
			hasO2 = true
			o2.Pairs += s.Order2.Pairs
			o2.Success += s.Order2.Success
			o2.Detected += s.Order2.Detected
			o2.Crash += s.Order2.Crash
			o2.Ignored += s.Order2.Ignored
		}
		if s.Order3 != nil {
			hasO3 = true
			o3.Triples += s.Order3.Triples
			o3.Success += s.Order3.Success
			o3.Detected += s.Order3.Detected
			o3.Crash += s.Order3.Crash
			o3.Ignored += s.Order3.Ignored
		}
		if s.Prune != nil {
			hasPrune = true
			prune.Add(*s.Prune)
		}
		agg.ElapsedMS += s.ElapsedMS
	}
	if hasO2 {
		agg.Order2 = &o2
	}
	if hasO3 {
		agg.Order3 = &o3
	}
	if hasPrune {
		agg.Prune = &prune
	}
	cache := r.Cache
	agg.Cache = &cache
	return agg
}

// Errs returns the errors of the failed cells, labelled by cell name.
func (r *CorpusResult) Errs() []error {
	var out []error
	for _, c := range r.Results {
		if c.Err != nil {
			out = append(out, fmt.Errorf("%s/o%d: %w", c.Case, c.Order, c.Err))
		}
	}
	return out
}

// NewWorkerPool returns fault.NewWorkerPool(workers). It remains only
// for bench/layers, whose pool probe calls it; RunCorpus builds its
// shared pool with fault.NewWorkerPool directly.
func NewWorkerPool(workers int) *fault.WorkerPool { return fault.NewWorkerPool(workers) }
