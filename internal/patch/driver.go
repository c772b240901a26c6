package patch

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
)

// Options configure the Faulter+Patcher loop.
type Options struct {
	Good []byte // input the program accepts
	Bad  []byte // input the program rejects

	Models     []fault.Model // default: skip + bitflip
	StepLimit  uint64
	Workers    int
	DedupSites bool

	// Style selects the pattern flavour (StyleFallthrough default).
	Style Style

	// Order selects the fault order the driver drives to a fixed
	// point: 1 (default) single faults only; 2 additionally runs pair
	// campaigns (fault.EnumeratePairs over the order-1 survivors) after
	// the single-fault fixed point, escalating every site involved in a
	// successful pair to the order-2-aware StyleOrder2 pattern, until
	// no pair succeeds, nothing is left to escalate, or the iteration
	// budget (maxIterations, 10 rounds) runs out.
	Order int

	// MaxPairs caps each pair campaign's enumeration
	// (0 = fault.DefaultMaxPairs).
	MaxPairs int

	// Store, when non-nil, persists campaign results content-addressed
	// by binary digest + campaign options, so a repeated `r2r patch`
	// invocation (or any other campaign over the same binaries) replays
	// from the cache. Without one the driver uses a private in-memory
	// store, which answers its own repeats: the first pair round's solo
	// sweep and the final verification re-run binaries an earlier
	// campaign already swept.
	Store *campaign.Store

	// Log receives one line per iteration when non-nil.
	Log func(string)
}

// IterationStats records one faulter+patcher round. The cache fields
// report what the round simulated and whether the store answered it
// instead.
type IterationStats struct {
	Iteration  int `json:"iteration"`
	Injections int `json:"injections"`
	Successes  int `json:"successes"` // successful faults (vulnerability instances)
	Sites      int `json:"sites"`     // distinct vulnerable instruction addresses
	Patched    int `json:"patched"`   // sites replaced with hardened patterns this round
	Residual   int `json:"residual"`  // vulnerable sites that could not be (re)patched
	Detected   int `json:"detected"`
	CodeSize   int `json:"code_size"` // .text bytes after this round's patching

	Resimulated int  `json:"resimulated,omitempty"` // injections actually simulated this round
	CacheHit    bool `json:"cache_hit,omitempty"`   // the whole campaign was answered from the store
}

// PairIterationStats records one order-2 escalation round.
type PairIterationStats struct {
	Iteration int `json:"iteration"`
	Solo      int `json:"solo"`      // order-1 faults in the pruning sweep
	Pairs     int `json:"pairs"`     // pairs simulated
	Successes int `json:"successes"` // successful pairs (order-2 vulnerabilities)
	Escalated int `json:"escalated"` // sites re-patched with order-2 patterns this round
	Residual  int `json:"residual"`  // pair sites that could not be escalated
	CodeSize  int `json:"code_size"` // .text bytes after this round's escalation

	Resimulated int `json:"resimulated,omitempty"` // solo injections actually simulated
	CacheHits   int `json:"cache_hits,omitempty"`  // store hits across the round's solo + pair stages
}

// Result is the outcome of the iterative hardening.
type Result struct {
	Binary     *elf.Binary  // final hardened binary
	Program    *bir.Program // its symbolized form
	Iterations []IterationStats
	Final      *fault.Report // campaign on the final binary

	// PairIterations and FinalPairs record the order-2 escalation
	// stage (Options.Order >= 2); FinalPairs is the pair campaign on
	// the final binary.
	PairIterations []PairIterationStats
	FinalPairs     []fault.PairInjection

	// Cache is the cumulative store accounting over every campaign the
	// driver ran (iterations, escalation rounds, final verification).
	Cache campaign.CacheStats

	OriginalCodeSize int
}

// Converged reports whether the loop ended with zero successful faults.
func (r *Result) Converged() bool {
	return r.Final != nil && len(r.Final.Successful()) == 0
}

// PairConverged reports whether the order-2 stage ended with zero
// successful fault pairs (vacuously false when it never ran).
func (r *Result) PairConverged() bool {
	if len(r.PairIterations) == 0 {
		return false
	}
	for _, p := range r.FinalPairs {
		if p.Outcome == fault.OutcomeSuccess {
			return false
		}
	}
	return true
}

// Overhead returns the code-size overhead fraction (e.g. 0.17 = 17%),
// the paper's Table V metric.
func (r *Result) Overhead() float64 {
	if r.OriginalCodeSize == 0 {
		return 0
	}
	return float64(r.Binary.CodeSize()-r.OriginalCodeSize) / float64(r.OriginalCodeSize)
}

// faulter runs the driver's campaigns through the plan → execute →
// store engine: a campaign over a binary the store has seen is
// answered content-addressed — which makes the driver's final
// verification sweep, and any warm re-invocation over the same binary,
// nearly free.
type faulter struct {
	opt   Options
	cache campaign.CacheStats
}

// campaignFor shapes the driver's standing campaign for a binary.
func (fl *faulter) campaignFor(bin *elf.Binary) fault.Campaign {
	return fault.Campaign{
		Binary:     bin,
		Good:       fl.opt.Good,
		Bad:        fl.opt.Bad,
		Models:     fl.opt.Models,
		StepLimit:  fl.opt.StepLimit,
		Workers:    fl.opt.Workers,
		DedupSites: fl.opt.DedupSites,
	}
}

// run executes the order-1 campaign for a binary.
func (fl *faulter) run(bin *elf.Binary) (*fault.Report, campaign.CacheStats, error) {
	res := campaign.RunAll([]campaign.Job{{Campaign: fl.campaignFor(bin)}},
		campaign.Options{Store: fl.opt.Store})[0]
	if res.Err != nil {
		return nil, campaign.CacheStats{}, res.Err
	}
	fl.cache.Add(res.Cache)
	return res.Report, res.Cache, nil
}

// runOrder2 executes the order-2 campaign for a binary (its solo sweep
// stored under the order-1 plan key the order-1 loop uses).
func (fl *faulter) runOrder2(bin *elf.Binary) (*campaign.Order2Report, campaign.CacheStats, error) {
	res, err := campaign.RunOrder2Result(fl.campaignFor(bin),
		campaign.Options{Store: fl.opt.Store, MaxPairs: fl.opt.MaxPairs})
	if err != nil {
		return nil, campaign.CacheStats{}, err
	}
	fl.cache.Add(res.Cache)
	return res.Report, res.Cache, nil
}

// maxIterations bounds the rinse-and-repeat loop (§IV-B3), and the
// order-2 escalation loop separately.
const maxIterations = 10

// Harden runs the simulation-driven iterative hardening of §IV-B: run
// the faulter, patch every vulnerable site with the matching Table I–III
// pattern, reassemble, and repeat until no successful faults remain, no
// further sites are patchable, or the iteration budget is exhausted.
func Harden(bin *elf.Binary, opt Options) (*Result, error) {
	if opt.Store == nil {
		st, err := campaign.NewStore("")
		if err != nil {
			return nil, err
		}
		opt.Store = st
	}
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			opt.Log(fmt.Sprintf(format, args...))
		}
	}

	prog, err := bir.Disassemble(bin)
	if err != nil {
		return nil, err
	}
	res := &Result{Program: prog, OriginalCodeSize: bin.CodeSize()}

	cur, err := prog.Reassemble() // refresh layout addresses
	if err != nil {
		return nil, err
	}

	fl := &faulter{opt: opt}
	var rep *fault.Report
	for iter := 1; iter <= maxIterations; iter++ {
		var cs campaign.CacheStats
		rep, cs, err = fl.run(cur)
		if err != nil {
			return nil, fmt.Errorf("patch: iteration %d: %w", iter, err)
		}

		sites := rep.VulnerableSites()
		stats := IterationStats{
			Iteration:   iter,
			Injections:  len(rep.Injections),
			Successes:   len(rep.Successful()),
			Sites:       len(sites),
			Detected:    rep.Count(fault.OutcomeDetected),
			CodeSize:    cur.CodeSize(),
			Resimulated: cs.Resimulated,
			CacheHit:    cs.Hits > 0,
		}
		if len(sites) == 0 {
			res.Iterations = append(res.Iterations, stats)
			logf("iteration %d: no successful faults — converged", iter)
			break
		}

		addrs := make([]uint64, len(sites))
		for i, site := range sites {
			addrs[i] = site.Addr
		}
		if stats.Patched, stats.Residual, err = patchSites(prog, addrs, opt.Style); err != nil {
			return nil, err
		}
		if cur, err = prog.Reassemble(); err != nil {
			return nil, err
		}
		stats.CodeSize = cur.CodeSize()
		res.Iterations = append(res.Iterations, stats)
		logf("iteration %d: %d injections (%d simulated), %d successes at %d sites, %d patched, %d residual, text %dB",
			iter, stats.Injections, stats.Resimulated, stats.Successes,
			stats.Sites, stats.Patched, stats.Residual, stats.CodeSize)

		if stats.Patched == 0 {
			logf("iteration %d: fixed point (nothing left to patch)", iter)
			break
		}
	}

	// Order-2 escalation stage: only after the single-fault fixed
	// point, so pair campaigns prune from a binary that is already
	// clean under solo faults.
	if opt.Order >= 2 {
		if cur, err = hardenPairs(prog, cur, res, fl, logf); err != nil {
			return nil, err
		}
	}

	// Final verification campaign. The binary is unchanged since the
	// last campaign over it, so the store answers it without
	// re-simulating.
	final, _, err := fl.run(cur)
	if err != nil {
		return nil, fmt.Errorf("patch: final verification: %w", err)
	}
	res.Final = final
	res.Binary = cur
	res.Cache = fl.cache
	return res, nil
}

// hardenPairs is the order-2 escalation loop: simulate fault pairs
// (pruned from a fresh order-1 sweep, as in fault.EnumeratePairs),
// escalate every site involved in a successful pair to the
// order-2-aware StyleOrder2 pattern, reassemble, and repeat until no
// pair succeeds, nothing is left to escalate, or the iteration budget
// is exhausted. Returns the (possibly re-patched) current binary.
func hardenPairs(prog *bir.Program, cur *elf.Binary, res *Result, fl *faulter, logf func(string, ...any)) (*elf.Binary, error) {
	for iter := 1; iter <= maxIterations; iter++ {
		o2, cs, err := fl.runOrder2(cur)
		if err != nil {
			return nil, fmt.Errorf("patch: pair iteration %d: %w", iter, err)
		}
		solo, injs := o2.Solo.Injections, o2.Pairs
		res.FinalPairs = injs
		stats := PairIterationStats{
			Iteration: iter, Solo: len(solo), Pairs: len(injs), CodeSize: cur.CodeSize(),
			Resimulated: cs.Resimulated, CacheHits: cs.Hits,
		}

		// Distinct sites of successful pairs, in address order: both
		// components are escalated — protecting either alone leaves the
		// pair exploitable through a different partner.
		siteSet := map[uint64]bool{}
		for _, pi := range injs {
			if pi.Outcome != fault.OutcomeSuccess {
				continue
			}
			stats.Successes++
			siteSet[pi.Pair.First.Addr] = true
			siteSet[pi.Pair.Second.Addr] = true
		}
		if stats.Successes == 0 {
			res.PairIterations = append(res.PairIterations, stats)
			logf("pair iteration %d: %d pairs, no successes — converged", iter, stats.Pairs)
			return cur, nil
		}
		sites := make([]uint64, 0, len(siteSet))
		for a := range siteSet {
			sites = append(sites, a)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		if stats.Escalated, stats.Residual, err = patchSites(prog, sites, StyleOrder2); err != nil {
			return nil, err
		}
		if cur, err = prog.Reassemble(); err != nil {
			return nil, err
		}
		stats.CodeSize = cur.CodeSize()
		res.PairIterations = append(res.PairIterations, stats)
		logf("pair iteration %d: %d solo (%d simulated), %d pairs, %d successes, %d escalated, %d residual, text %dB",
			iter, stats.Solo, stats.Resimulated, stats.Pairs,
			stats.Successes, stats.Escalated, stats.Residual, stats.CodeSize)
		if stats.Escalated == 0 {
			logf("pair iteration %d: fixed point (nothing left to escalate)", iter)
			return cur, nil
		}
	}
	// Budget exhausted right after an escalation round: refresh the
	// final pair report so it describes the binary actually returned.
	o2, _, err := fl.runOrder2(cur)
	if err != nil {
		return nil, fmt.Errorf("patch: final pair verification: %w", err)
	}
	res.FinalPairs = o2.Pairs
	return cur, nil
}

// patchSites is the site-patching step of both driver loops: it
// inserts the fault handler (a binary clean under solo faults but
// vulnerable to a pair reaches the pair loop without one), then patches
// the instruction at each address, in order, with style's pattern. A
// site that already carries the style's mark (Protected, or Order2 for
// StyleOrder2) counts as residual, and so does one no pattern fits,
// which is marked so that no later round retries it.
func patchSites(prog *bir.Program, addrs []uint64, style Style) (patched, residual int, err error) {
	EnsureFaulthandler(prog)
	for _, addr := range addrs {
		ref, ok := prog.FindByAddr(addr)
		if !ok {
			return 0, 0, fmt.Errorf("patch: vulnerable site %#x not found in program", addr)
		}
		inst := &ref.Block.Insts[ref.Index]
		mark := &inst.Protected
		if style == StyleOrder2 {
			mark = &inst.Order2
		}
		if *mark {
			residual++
			continue
		}
		if err := Apply(prog, ref, style); err != nil {
			if !errors.Is(err, ErrUnpatchable) {
				return 0, 0, err
			}
			*mark = true // do not retry
			residual++
			continue
		}
		patched++
	}
	return patched, residual, nil
}

// Apply replaces the instruction at ref with its hardened pattern.
func Apply(prog *bir.Program, ref bir.InstRef, style Style) error {
	site := ref.Block.Insts[ref.Index]
	follow := prog.SplitAfter(ref)
	blocks, err := PatternFor(prog, site, follow, style)
	if err != nil {
		return err
	}
	prog.ReplaceWithBlocks(ref, blocks)
	return nil
}

// Summary renders the iteration history.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "original code size: %d bytes\n", r.OriginalCodeSize)
	for _, it := range r.Iterations {
		fmt.Fprintf(&sb, "iter %d: injections=%d successes=%d sites=%d patched=%d residual=%d detected=%d text=%dB\n",
			it.Iteration, it.Injections, it.Successes, it.Sites, it.Patched, it.Residual, it.Detected, it.CodeSize)
	}
	for _, it := range r.PairIterations {
		fmt.Fprintf(&sb, "pair iter %d: solo=%d pairs=%d successes=%d escalated=%d residual=%d text=%dB\n",
			it.Iteration, it.Solo, it.Pairs, it.Successes, it.Escalated, it.Residual, it.CodeSize)
	}
	if r.Final != nil {
		fmt.Fprintf(&sb, "final: %s\n", r.Final.Summary())
	}
	if len(r.PairIterations) > 0 {
		succ := 0
		for _, p := range r.FinalPairs {
			if p.Outcome == fault.OutcomeSuccess {
				succ++
			}
		}
		fmt.Fprintf(&sb, "final pairs: %d/%d successful\n", succ, len(r.FinalPairs))
	}
	fmt.Fprintf(&sb, "hardened code size: %d bytes (%.2f%% overhead)\n",
		r.Binary.CodeSize(), r.Overhead()*100)
	return sb.String()
}
