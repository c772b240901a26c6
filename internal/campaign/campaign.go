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
//     can be split across processes or machines; Merge recombines the
//     per-shard reports into a report bit-identical to an unsharded run.
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
	// list — see there).
	Shard Shard

	// MaxPairs caps order-2 pair enumeration (RunOrder2 and RunOrder3;
	// 0 = fault.DefaultMaxPairs).
	MaxPairs int

	// MaxTriples caps order-3 triple enumeration (RunOrder3 only;
	// 0 = fault.DefaultMaxTriples).
	MaxTriples int

	// Prune routes the order-1 sweep through the static pruning screens
	// (fault.Pruner): faults the step budget, the decode pre-screen, or
	// the inert-window dataflow proves are answered without simulation.
	// Multi-fault stages always run on the state-hash-pruned first-fault
	// tree (fault.PairPruner), and RunOrder3 forces the screens on too.
	// Like Workers and Store, pruning never changes results — reports
	// stay bit-identical, test-enforced by the differential harness in
	// prunediff_test.go — so it is not part of the plan key. It decides
	// whether a run reports its execution accounting (PruneStats).
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

	// pool, when non-nil, is the shared WorkerPool the run's sessions
	// execute on instead of a private pool per stage — set by RunCorpus
	// so concurrent cells share one worker budget. Like Workers, it
	// never changes results, only where the simulations run; it is not
	// part of the plan key.
	pool *fault.WorkerPool

	// newSession, when set, replaces fault.NewSession for the run —
	// the corpus runner's hook for reusing one session across the
	// orders of a cell chain (session construction replays the golden
	// runs and snapshots the trace, too expensive to repeat per cell).
	newSession func(fault.Campaign) (*fault.Session, error)
}

// session builds (or fetches, via the newSession hook) the run's
// session and injects the shared pool when one is configured.
func (opt Options) session(c fault.Campaign) (*fault.Session, error) {
	var s *fault.Session
	var err error
	if opt.newSession != nil {
		s, err = opt.newSession(c)
	} else {
		s, err = fault.NewSession(c)
	}
	if err != nil {
		return nil, err
	}
	if opt.pool != nil {
		s.SetPool(opt.pool)
	}
	return s, nil
}

// Run executes one fault campaign on the engine and assembles the
// standard report. With a non-trivial shard, the report holds only that
// shard's injections (in shard-local order); Merge recombines them.
// With Options.Store set, the plan is answered from the store when
// possible and recorded into it otherwise.
func Run(c fault.Campaign, opt Options) (*fault.Report, error) {
	res, err := runInc("", 0, 1, c, opt, nil, false)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// RunResult is the full outcome of an incremental campaign run: the
// report, the memo a follow-up run against a patched binary can reuse
// outcomes from, and the cache accounting.
type RunResult struct {
	Report *fault.Report
	Tally  fault.Tally
	Memo   *Memo
	Cache  CacheStats
	Prune  *fault.PruneStats // pruning accounting; nil unless Options.Prune
}

// RunIncremental executes one campaign through the planner → store →
// executor path. prev, when non-nil, is the memo of a previous run
// (typically against the pre-patch binary of a driver iteration): every
// fault whose recorded footprint avoids the bytes changed since is
// answered from it, and only the rest are re-simulated. Results are
// bit-identical to Run without any cache.
func RunIncremental(c fault.Campaign, opt Options, prev *Memo) (*RunResult, error) {
	return runInc("", 0, 1, c, opt, prev, true)
}

// runInc is the shared order-1 execution path. wantMemo gates the
// footprint recording and memo assembly: callers that discard the memo
// and bring no cache (Run, RunAll without a store) keep the plain
// simulation hot path.
func runInc(name string, jobIndex, jobs int, c fault.Campaign, opt Options, prev *Memo, wantMemo bool) (*RunResult, error) {
	shard, err := opt.Shard.normalize()
	if err != nil {
		return nil, err
	}
	s, err := opt.session(c)
	if err != nil {
		return nil, err
	}
	e := &executor{s: s, store: opt.Store, prune: opt.Prune}
	progress := progressFunc(opt, name, jobIndex, jobs)
	injections, tally, memo, stats, err := e.solo(c, shard, opt.Workers, prev, wantMemo, progress)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Report: s.Report(injections),
		Tally:  tally,
		Memo:   memo,
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
	Cache   CacheStats        // store/memo accounting (hit/miss counters zero without Options.Store)
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
		res, err := runInc(job.Name, i, len(jobs), job.Campaign, opt, nil, false)
		out[i] = Result{Name: job.Name, Elapsed: time.Since(start), Err: err}
		if err == nil {
			out[i].Report = res.Report
			out[i].Tally = res.Tally
			out[i].Cache = res.Cache
			out[i].Prune = res.Prune
		}
	}
	return out
}

// Order2Report is the outcome of a multi-fault campaign: the order-1
// sweep its sequence lists were pruned from, the simulated fault pairs,
// and — for an order-3 campaign — the simulated fault triples.
type Order2Report struct {
	Solo  *fault.Report         // the complete order-1 campaign
	Pairs []fault.PairInjection // simulated pairs, in enumeration order

	// PairTally is the engine-provided outcome aggregate of Pairs
	// (populated by RunOrder2 and MergeOrder2, like Result.Tally for
	// order-1 batches). PairCount and SummarizeOrder2 derive from
	// Pairs directly, so they are exact on any report.
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
	res, err := runOrderInc("", 0, 1, 2, c, opt, nil, false)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// Order2Result is the full outcome of an incremental multi-fault run.
type Order2Result struct {
	Report *Order2Report
	Memo   *Memo // solo-sweep memo, reusable by the next incremental run
	Cache  CacheStats
	Prune  *fault.PruneStats // pruning accounting; nil unless Options.Prune
}

// RunOrder2Result is RunOrder2 returning the full result — cache and
// pruning accounting included — without the incremental memo
// machinery. The CLI surfaces these stats; the report itself is
// bit-identical to RunOrder2's.
func RunOrder2Result(c fault.Campaign, opt Options) (*Order2Result, error) {
	return runOrderInc("", 0, 1, 2, c, opt, nil, false)
}

// RunOrder2Incremental is RunOrder2 through the planner → store →
// executor path. The solo sweep reuses prev like RunIncremental (and is
// stored under its own order-1 plan key, so order-1 and order-2
// campaigns of the same binary share it); the pair stage is reused on
// exact plan-key matches only, since pair runs fork mid-trace faulted
// machines whose footprints are not recorded.
func RunOrder2Incremental(c fault.Campaign, opt Options, prev *Memo) (*Order2Result, error) {
	return runOrderInc("", 0, 1, 2, c, opt, prev, true)
}

// RunOrder3 executes a budget-capped order-3 multi-fault campaign: the
// complete order-1 sweep, the order-2 pair stage (opt.MaxPairs), then
// the deterministically enumerated triple list (see
// fault.EnumerateTriples, opt.MaxTriples) on the pruned first-fault
// snapshot tree. opt.Shard applies to the triple list only — the lower
// stages run unsharded, since triple pruning wants every solo and pair
// outcome. The static screens are forced on (Options.Prune). With
// Options.Store, each stage is answered from its own plan key when
// possible.
func RunOrder3(c fault.Campaign, opt Options) (*Order2Result, error) {
	return runOrderInc("", 0, 1, 3, c, opt, nil, false)
}

// runOrderInc is the one multi-fault execution path (order 2 or 3):
// the solo sweep, then each stage on the pruned first-fault tree. Only
// the top stage is sharded. With an empty name the phases report as
// stand-alone jobs ("order-1" 0/order ... "order-k" k-1/order); a batch
// caller (RunCorpus) passes its own name/jobIndex/jobs and the phases
// report as "<name> order-k" under that index — still separate jobs, so
// the Done-is-monotonic-per-job contract of Options.Progress holds.
// Every stage stores under its own plan key, so a corpus cell chain
// {2, 3} answers the order-3 pair stage from the order-2 cell's entry.
func runOrderInc(name string, jobIndex, jobs, order int, c fault.Campaign, opt Options, prev *Memo, wantMemo bool) (*Order2Result, error) {
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
	s, err := opt.session(c)
	if err != nil {
		return nil, err
	}
	e := &executor{s: s, store: opt.Store, prune: opt.Prune}
	solo, _, memo, stats, err := e.solo(c, Shard{}, opt.Workers, prev, wantMemo, progress(1))
	if err != nil {
		return nil, err
	}
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
	return &Order2Result{Report: rep, Memo: memo, Cache: stats, Prune: e.pruneStats()}, nil
}

// budget resolves an enumeration cap against its default.
func budget(max, def int) int {
	if max <= 0 {
		return def
	}
	return max
}

// MergeOrder2 recombines the pair shards of one order-2 campaign
// (shards[i] produced with Shard{i, len(shards)}) into a report
// bit-identical to the unsharded run. Every shard carries the same
// (unsharded) solo report; the pair lists recombine round-robin. The
// shards of an order-3 campaign are rejected: each carries the full
// pair list and only its share of the triples.
func MergeOrder2(shards []*Order2Report) (*Order2Report, error) {
	n := len(shards)
	if n == 0 {
		return nil, errors.New("campaign: no shards to merge")
	}
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("campaign: shard %d is nil", i)
		}
		if sh.Triples != nil {
			return nil, fmt.Errorf("campaign: shard %d is an order-3 shard; order-3 shards do not merge", i)
		}
	}
	if n == 1 {
		return shards[0], nil
	}
	total := 0
	for i, sh := range shards {
		if sh.Solo.GoodOracle != shards[0].Solo.GoodOracle ||
			sh.Solo.BadOracle != shards[0].Solo.BadOracle ||
			len(sh.Solo.Injections) != len(shards[0].Solo.Injections) {
			return nil, fmt.Errorf("campaign: shard %d solo sweep differs — not the same campaign", i)
		}
		total += len(sh.Pairs)
	}
	for i, sh := range shards {
		want := (total - i + n - 1) / n
		if len(sh.Pairs) != want {
			return nil, fmt.Errorf("campaign: shard %d has %d pairs, want %d of %d total",
				i, len(sh.Pairs), want, total)
		}
		// An engine-populated tally must agree with the pair list it
		// came with — a cheap integrity check that catches truncated or
		// hand-edited shards the size decomposition alone cannot (a
		// shorter pair list can masquerade as a smaller campaign).
		// Hand-built reports with an unpopulated tally are exempt.
		if sh.PairTally.Total() == 0 {
			continue
		}
		var tt fault.Tally
		for _, p := range sh.Pairs {
			tt[p.Outcome]++
		}
		if tt != sh.PairTally {
			return nil, fmt.Errorf("campaign: shard %d pair tally %v inconsistent with its %d pairs",
				i, sh.PairTally, len(sh.Pairs))
		}
	}
	merged := &Order2Report{
		Solo:  shards[0].Solo,
		Pairs: make([]fault.PairInjection, 0, total),
	}
	cursor := make([]int, n)
	for j := 0; j < total; j++ {
		w := j % n
		merged.Pairs = append(merged.Pairs, shards[w].Pairs[cursor[w]])
		cursor[w]++
	}
	for _, p := range merged.Pairs {
		merged.PairTally[p.Outcome]++
	}
	return merged, nil
}

// Merge recombines the reports of all Count shards of one campaign
// (shards[i] produced with Shard{i, len(shards)}) into a single report
// bit-identical to the unsharded run. The shard reports must come from
// the same campaign and be passed in shard order.
func Merge(shards []*fault.Report) (*fault.Report, error) {
	n := len(shards)
	if n == 0 {
		return nil, errors.New("campaign: no shards to merge")
	}
	if n == 1 {
		return shards[0], nil
	}
	total := 0
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("campaign: shard %d is nil", i)
		}
		if sh.GoodOracle != shards[0].GoodOracle || sh.BadOracle != shards[0].BadOracle {
			return nil, fmt.Errorf("campaign: shard %d oracles differ — not the same campaign", i)
		}
		total += len(sh.Injections)
	}
	// Round-robin assignment means shard i holds faults i, i+n, i+2n...
	// — so shard sizes must match that decomposition exactly.
	for i, sh := range shards {
		want := (total - i + n - 1) / n
		if len(sh.Injections) != want {
			return nil, fmt.Errorf("campaign: shard %d has %d injections, want %d of %d total",
				i, len(sh.Injections), want, total)
		}
	}
	merged := &fault.Report{
		Trace:      shards[0].Trace,
		GoodOracle: shards[0].GoodOracle,
		BadOracle:  shards[0].BadOracle,
		Injections: make([]fault.Injection, 0, total),
	}
	cursor := make([]int, n)
	for j := 0; j < total; j++ {
		w := j % n
		merged.Injections = append(merged.Injections, shards[w].Injections[cursor[w]])
		cursor[w]++
	}
	return merged, nil
}
