// Package campaign orchestrates fault-injection sweeps at production
// scale. It layers batching, sharding, progress reporting, and
// structured export on top of the snapshot-cached execution engine in
// internal/fault:
//
//   - Run drives one campaign through the engine: fault sites are
//     enumerated once per binary, the golden run is memoized, and every
//     injection forks a copy-on-write machine snapshot instead of
//     re-initializing memory and registers (the state-reuse strategy
//     that makes exhaustive fault simulation tractable, cf. ARMORY).
//   - Shard{I, N} restricts a run to every N-th fault, so one campaign
//     can be split across processes or machines: shard I's report holds
//     exactly the unsharded run's injections I, I+N, I+2N, ..., so the
//     shards' outcome counts add up to the unsharded run's.
//   - RunAll sweeps many binaries/variants in one call with aggregate
//     progress callbacks — the shape of the paper's evaluation, which
//     compares the same campaign across original, Faulter+Patcher,
//     Hybrid, and duplication-baseline variants.
//
// Results are deterministic: for a given campaign, the report is
// bit-identical regardless of worker count or shard decomposition.
package campaign

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/r2r/reinforce/internal/fault"
)

// Shard selects a round-robin slice of a campaign's fault list: fault j
// is simulated iff j mod N == I. The zero value means "the whole
// campaign".
type Shard struct {
	Index int // shard number in [0, Count)
	Count int // total shards; <= 1 disables sharding
}

// String renders the shard as "i/n".
func (s Shard) String() string {
	if s.Count <= 1 {
		return "1/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShard parses the CLI's "i/n" shard syntax. The empty string is
// the whole campaign (the zero Shard); anything else must be exactly
// two base-10 integers around one slash, with n >= 1 and i in [0, n).
func ParseShard(s string) (Shard, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Shard{}, nil
	}
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("campaign: bad shard %q: want i/n", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return Shard{}, fmt.Errorf("campaign: bad shard index in %q: %v", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(cnt))
	if err != nil {
		return Shard{}, fmt.Errorf("campaign: bad shard count in %q: %v", s, err)
	}
	if n < 1 {
		return Shard{}, fmt.Errorf("campaign: shard count %d in %q: want >= 1", n, s)
	}
	if i < 0 || i >= n {
		return Shard{}, fmt.Errorf("campaign: shard index %d outside [0,%d)", i, n)
	}
	return Shard{Index: i, Count: n}, nil
}

// normalize clamps the zero value and validates the rest.
func (s Shard) normalize() (Shard, error) {
	if s.Count <= 1 {
		return Shard{Index: 0, Count: 1}, nil
	}
	if s.Index < 0 || s.Index >= s.Count {
		return s, fmt.Errorf("campaign: shard index %d outside [0,%d)", s.Index, s.Count)
	}
	return s, nil
}

// Progress is a point-in-time view of a running batch.
type Progress struct {
	Job      string // name of the campaign being executed
	JobIndex int    // 0-based position in the batch
	Jobs     int    // batch size (1 for Run)
	Done     int    // injections finished in this job
	Total    int    // injections in this job
}

// Options tune campaign execution without changing its results.
type Options struct {
	// Workers overrides the per-campaign worker count (default: the
	// campaign's own setting, itself defaulting to GOMAXPROCS).
	Workers int

	// Shard restricts execution to one shard of the fault list (for
	// RunOrder2 and RunOrder3, one shard of the top stage's sequence
	// list; the lower stages run whole — see there). A shard's list is
	// the unsharded run's items i, i+n, i+2n, ... in order; nothing
	// merges shards back, their counts simply add up.
	Shard Shard

	// MaxPairs caps order-2 pair enumeration (RunOrder2 and RunOrder3;
	// 0 = fault.DefaultMaxPairs).
	MaxPairs int

	// MaxTriples caps order-3 triple enumeration (RunOrder3 only;
	// 0 = fault.DefaultMaxTriples).
	MaxTriples int

	// Prune asks the run to report its pruning accounting
	// (fault.PruneStats); it changes nothing else. The screens always
	// run: the order-1 sweep answers undecodable bit flips with the
	// decode pre-screen (fault.Pruner), and multi-fault stages run on
	// the pruned first-fault tree (fault.PairPruner). RunOrder3 always
	// reports. Pruning never changes results — reports stay
	// bit-identical, test-enforced by the differential harness in
	// prunediff_test.go — so, like Workers and Store, it is not part of
	// the plan key.
	Prune bool

	// Progress, when non-nil, receives serialized updates as
	// injections complete: Done is monotonically non-decreasing and the
	// last call of a job has Done == Total. Called from the executing
	// goroutines but never concurrently. RunOrder2 and RunOrder3 report
	// their phases as separate jobs ("order-1", "order-2", ...; a corpus
	// cell labels them "<case>/o2 order-1", "<case>/o2 order-2", ...
	// under the cell's job index). A campaign answered entirely from the
	// store reports a single Done == Total update.
	Progress func(Progress)

	// Store, when non-nil, is the content-addressed result cache the
	// planner consults before executing and the executor writes back
	// to (see Store). Results are bit-identical with or without it —
	// test-enforced alongside the worker/shard determinism guarantees.
	Store *Store
}

// Run executes one fault campaign on the engine and assembles the
// standard report. With a non-trivial shard, the report holds only that
// shard's injections, in shard-local order. With Options.Store set, the
// plan is answered from the store when possible and recorded into it
// otherwise.
func Run(c fault.Campaign, opt Options) (*fault.Report, error) {
	res := RunAll([]Job{{Campaign: c}}, opt)[0]
	return res.Report, res.Err
}

// runSolo is the one order-1 execution path behind Run, RunAll and the
// corpus's order-1 cells, on the campaign's session s: the store
// answers the plan when it can, and the session simulates it
// otherwise. The returned Result carries neither Name nor Elapsed.
func runSolo(name string, jobIndex, jobs int, s *fault.Session, c fault.Campaign, opt Options) (Result, error) {
	shard, err := opt.Shard.normalize()
	if err != nil {
		return Result{}, err
	}
	e := &executor{s: s, store: opt.Store, prune: opt.Prune}
	injections, tally, stats := e.solo(c, shard, opt.Workers, progressFunc(opt, name, jobIndex, jobs))
	return Result{
		Report: s.Report(injections),
		Tally:  tally,
		Cache:  stats,
		Prune:  e.pruneStats(),
	}, nil
}

// progressFunc adapts the Options callback to the engine's raw
// (done, total) firehose: workers race to deliver their counts, and
// dropping the stale ones keeps Done monotonic, so the final callback a
// consumer sees is always Done == Total. Returns nil when no callback
// is configured.
func progressFunc(opt Options, name string, jobIndex, jobs int) func(done, total int) {
	if opt.Progress == nil {
		return nil
	}
	var mu sync.Mutex
	last := -1
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done < last {
			return
		}
		last = done
		opt.Progress(Progress{
			Job: name, JobIndex: jobIndex, Jobs: jobs,
			Done: done, Total: total,
		})
	}
}

// Job names one campaign of a batch.
type Job struct {
	Name     string
	Campaign fault.Campaign
}

// Result is the outcome of one batch job.
type Result struct {
	Name    string
	Report  *fault.Report // nil when Err is set
	Tally   fault.Tally
	Elapsed time.Duration
	Cache   CacheStats        // store accounting (hit/miss counters zero without Options.Store)
	Prune   *fault.PruneStats // pruning accounting; nil unless Options.Prune
	Err     error
}

// RunAll executes a batch of campaigns — typically the same sweep over
// many binaries or hardened variants. Jobs run sequentially (each one
// already saturates the worker pool internally); a failing job records
// its error and the batch continues.
func RunAll(jobs []Job, opt Options) []Result {
	out := make([]Result, len(jobs))
	for i, job := range jobs {
		start := time.Now() //lint:allow wallclock (Elapsed is reporting-only, stripped before determinism comparisons)
		var res Result
		s, err := fault.NewSession(job.Campaign)
		if err == nil {
			res, err = runSolo(job.Name, i, len(jobs), s, job.Campaign, opt)
		}
		res.Name, res.Elapsed, res.Err = job.Name, time.Since(start), err
		out[i] = res
	}
	return out
}

// Order2Report is the outcome of a multi-fault campaign: the order-1
// sweep its sequence lists were pruned from, the simulated fault pairs,
// and — for an order-3 campaign — the simulated fault triples.
type Order2Report struct {
	Solo  *fault.Report         // the complete order-1 campaign
	Pairs []fault.PairInjection // simulated pairs, in enumeration order

	// PairTally is the engine-provided outcome aggregate of Pairs (the
	// shard's pairs for a sharded order-2 run), like Result.Tally for
	// order-1 batches. PairCount and SummarizeOrder2 derive from Pairs
	// directly, so they are exact on any report.
	PairTally fault.Tally

	// Triples is the order-3 stage, in enumeration order: nil for an
	// order-2 campaign, non-nil (if possibly empty) for an order-3 one.
	// TripleTally aggregates it like PairTally.
	Triples     []fault.TripleInjection
	TripleTally fault.Tally
}

// PairCount returns how many pairs had the given outcome.
func (r *Order2Report) PairCount(o fault.Outcome) int {
	n := 0
	for _, p := range r.Pairs {
		if p.Outcome == o {
			n++
		}
	}
	return n
}

// TripleCount returns how many triples had the given outcome.
func (r *Order2Report) TripleCount(o fault.Outcome) int {
	n := 0
	for _, t := range r.Triples {
		if t.Outcome == o {
			n++
		}
	}
	return n
}

// SuccessfulPairs returns the pairs that constitute order-2
// vulnerabilities.
func (r *Order2Report) SuccessfulPairs() []fault.PairInjection {
	var out []fault.PairInjection
	for _, p := range r.Pairs {
		if p.Outcome == fault.OutcomeSuccess {
			out = append(out, p)
		}
	}
	return out
}

// RunOrder2 executes an order-2 multi-fault campaign: the complete
// order-1 sweep runs first (always unsharded — pair pruning needs every
// solo outcome), then the deterministically enumerated pair list (see
// fault.EnumeratePairs) is simulated on the pruned first-fault snapshot
// tree. opt.Shard applies to the pair list only; opt.MaxPairs caps it.
// Because the pair list is a pure function of the (deterministic) solo
// sweep, results are bit-identical across worker counts and shard
// decompositions — and across store hits and cold runs.
func RunOrder2(c fault.Campaign, opt Options) (*Order2Report, error) {
	res, err := RunOrder2Result(c, opt)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// Order2Result is the full outcome of a multi-fault run.
type Order2Result struct {
	Report *Order2Report
	Cache  CacheStats
	Prune  *fault.PruneStats // pruning accounting; nil unless Options.Prune
}

// RunOrder2Result is RunOrder2 returning the full result — cache and
// pruning accounting included. The CLI surfaces these stats; the report
// itself is bit-identical to RunOrder2's. The solo sweep is stored
// under its own order-1 plan key, so order-1 and order-2 campaigns of
// the same binary share it.
func RunOrder2Result(c fault.Campaign, opt Options) (*Order2Result, error) {
	return runOrderAlone(2, c, opt)
}

// RunOrder2Incremental is RunOrder2Result. It remains only for
// bench/layers, whose store probes call it; prev must be nil.
func RunOrder2Incremental(c fault.Campaign, opt Options, prev any) (*Order2Result, error) {
	if prev != nil {
		return nil, errors.New("campaign: RunOrder2Incremental takes no previous run; pass nil")
	}
	return RunOrder2Result(c, opt)
}

// RunOrder3 executes a budget-capped order-3 multi-fault campaign: the
// complete order-1 sweep, the order-2 pair stage (opt.MaxPairs), then
// the deterministically enumerated triple list (see
// fault.EnumerateTriples, opt.MaxTriples) on the pruned first-fault
// snapshot tree. opt.Shard applies to the triple list only — the lower
// stages run unsharded, since triple pruning wants every solo and pair
// outcome. The result always carries its pruning accounting
// (Options.Prune is forced on). With Options.Store, each stage is
// answered from its own plan key when possible.
func RunOrder3(c fault.Campaign, opt Options) (*Order2Result, error) {
	return runOrderAlone(3, c, opt)
}

// runOrderAlone is runOrder for a stand-alone multi-fault campaign, on
// a session of its own.
func runOrderAlone(order int, c fault.Campaign, opt Options) (*Order2Result, error) {
	s, err := fault.NewSession(c)
	if err != nil {
		return nil, err
	}
	return runOrder("", 0, 1, order, s, c, opt)
}

// runOrder is the one multi-fault execution path (order 2 or 3), on
// the campaign's session s: the solo sweep, then each stage on the
// pruned first-fault tree. Only the top stage is sharded. With an
// empty name the phases report as
// stand-alone jobs ("order-1" 0/order ... "order-k" k-1/order); a batch
// caller (RunCorpus) passes its own name/jobIndex/jobs and the phases
// report as "<name> order-k" under that index — still separate jobs, so
// the Done-is-monotonic-per-job contract of Options.Progress holds.
// Every stage stores under its own plan key, so a corpus cell chain
// {2, 3} answers the order-3 pair stage from the order-2 cell's entry.
func runOrder(name string, jobIndex, jobs, order int, s *fault.Session, c fault.Campaign, opt Options) (*Order2Result, error) {
	if order >= 3 {
		opt.Prune = true
	}
	progress := func(k int) func(done, total int) {
		if name == "" {
			return progressFunc(opt, fmt.Sprintf("order-%d", k), k-1, order)
		}
		return progressFunc(opt, fmt.Sprintf("%s order-%d", name, k), jobIndex, jobs)
	}
	shard, err := opt.Shard.normalize()
	if err != nil {
		return nil, err
	}
	e := &executor{s: s, store: opt.Store, prune: opt.Prune}
	solo, _, stats := e.solo(c, Shard{}, opt.Workers, progress(1))
	rep := &Order2Report{Solo: s.Report(solo)}
	pairShard := shard
	if order >= 3 {
		pairShard = Shard{}
	}
	maxPairs := budget(opt.MaxPairs, fault.DefaultMaxPairs)
	pairs, outcomes, tally, st := stage(e, c, 2, maxPairs, fault.EnumeratePairs(solo, maxPairs), pairShard, opt.Workers, solo, nil, progress(2))
	rep.Pairs, rep.PairTally = fault.PairInjections(pairs, outcomes), tally
	stats.Add(st)
	if order >= 3 {
		maxTriples := budget(opt.MaxTriples, fault.DefaultMaxTriples)
		triples, outcomes, tally, st := stage(e, c, 3, maxTriples, fault.EnumerateTriples(solo, maxTriples), shard, opt.Workers, solo, rep.Pairs, progress(3))
		rep.Triples, rep.TripleTally = fault.TripleInjections(triples, outcomes), tally
		stats.Add(st)
	}
	return &Order2Result{Report: rep, Cache: stats, Prune: e.pruneStats()}, nil
}

// budget resolves an enumeration cap against its default.
func budget(max, def int) int {
	if max <= 0 {
		return def
	}
	return max
}
