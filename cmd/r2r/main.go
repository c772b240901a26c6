// Command r2r is the rewrite-to-reinforce command line tool: assemble,
// run, trace, fault-scan, and harden static x86-64 binaries, and
// regenerate the paper's evaluation tables.
//
// Usage:
//
//	r2r asm -o prog.elf prog.s          assemble a program
//	r2r info prog.elf                   sections, entry, code size
//	r2r disasm prog.elf                 symbolized disassembly
//	r2r run [-in STR] prog.elf          execute in the emulator
//	r2r trace [-in STR] prog.elf        dynamic instruction trace
//	r2r lift prog.elf                   print the compiler IR
//	r2r faults -good G -bad B prog.elf  fault-injection campaign
//	r2r campaign -good G -bad B prog.elf ...        batch campaigns (sharded, JSON/CSV)
//	r2r corpus [-cases LIST] [-order 1|2|3] ...     batched sweep across the case-study corpus
//	r2r patch -good G -bad B -o out.elf prog.elf    Faulter+Patcher pipeline
//	r2r hybrid -o out.elf prog.elf                  Hybrid pipeline
//	r2r oracle [-cases LIST] [-harden P] ...        differential-execution oracle
//	r2r verify [-cases LIST] [-pipeline P] [BIN]    static countermeasure verifier
//	r2r cases -dir DIR                  write the case studies to disk
//	r2r experiments [-only NAME]        regenerate the paper's tables
//	r2r pipeline                        describe the two pipelines
//
// The flag surface of every subcommand is defined in internal/cli,
// shared with the docs checker (tools/doccheck).
//
// Exit codes follow the usual convention: 0 on success, 1 on a runtime
// failure (unreadable binary, failed pipeline, failed campaign), 2 on a
// usage error (unknown command or flag, bad flag value, wrong argument
// count).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/r2r/reinforce"
	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/cli"
	"github.com/r2r/reinforce/internal/emit"
	"github.com/r2r/reinforce/internal/experiments"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/oracle"
	"github.com/r2r/reinforce/internal/passes"
	"github.com/r2r/reinforce/internal/patch"
	"github.com/r2r/reinforce/internal/report"
	"github.com/r2r/reinforce/internal/static"
)

// usageError marks a command-line failure (bad flag, bad flag value,
// wrong argument count) as opposed to a runtime one; main exits 2 for
// usage errors and 1 for everything else, the convention README
// documents.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// usagef builds a usage error like fmt.Errorf.
func usagef(format string, args ...any) error {
	return usageError{err: fmt.Errorf(format, args...)}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "asm":
		err = cmdAsm(args)
	case "info":
		err = cmdInfo(args)
	case "disasm":
		err = cmdDisasm(args)
	case "run":
		err = cmdRun(args)
	case "trace":
		err = cmdTrace(args)
	case "lift":
		err = cmdLift(args)
	case "faults":
		err = cmdFaults(args)
	case "campaign":
		err = cmdCampaign(args, os.Stdout)
	case "corpus":
		err = cmdCorpus(args, os.Stdout)
	case "patch":
		err = cmdPatch(args, os.Stdout)
	case "hybrid":
		err = cmdHybrid(args)
	case "oracle":
		err = cmdOracle(args, os.Stdout)
	case "verify":
		err = cmdVerify(args, os.Stdout)
	case "cases":
		err = cmdCases(args)
	case "cfg":
		err = cmdCFG(args)
	case "experiments":
		err = cmdExperiments(args)
	case "pipeline":
		err = cmdPipeline()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "r2r: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "r2r %s: %v\n", cmd, err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `r2r — rewrite binaries to reinforce them against fault injection

commands:
  asm -o OUT IN.s                assemble to a static ELF
  info BIN                       entry, sections, code size
  disasm BIN                     symbolized disassembly
  run [-in STR] BIN              execute in the emulator
  trace [-in STR] BIN            record the dynamic instruction trace
  lift BIN                       print the lifted compiler IR
  faults -good G -bad B [-model MODELS] BIN
                                 run a fault-injection campaign
  campaign -good G -bad B [-model MODELS] [-order 1|2] [-max-pairs N]
           [-workers N] [-shard i/n] [-prune] [-json|-csv] [-q]
           [-cpuprofile F] [-memprofile F] BIN [BIN...]
                                 batch campaigns on the parallel engine
                                 with sharding and JSON/CSV export;
                                 -order 2 adds multi-fault pairs; -prune
                                 reports how many injections the pruning
                                 screens answered without simulating them
  corpus [-cases LIST] [-model MODELS] [-order 1|2|3] [-max-pairs N]
         [-max-triples N] [-max-faults N] [-workers N] [-parallel-cells N]
         [-cache-dir DIR] [-prune] [-json|-csv] [-q]
         [-cpuprofile F] [-memprofile F]
                                 sweep the registered case-study corpus
                                 as one batched, cache-sharing run with
                                 per-case and aggregate survival reports;
                                 -order 3 adds the budget-capped, pruned
                                 triple stage; -parallel-cells N runs up
                                 to N cases concurrently on one shared
                                 worker pool (results bit-identical)
  patch -good G -bad B [-model ...] [-order 1|2] [-max-pairs N]
        [-json|-csv] [-o OUT] [-emit ELF]
        [-cpuprofile F] [-memprofile F] BIN
                                 harden via the Faulter+Patcher pipeline;
                                 -order 2 escalates fault-pair sites to
                                 the order-2-aware patterns; -emit also
                                 writes a standalone runnable ELF
  hybrid [-harden branch|order2] [-o OUT] [-emit ELF] BIN
                                 harden via the Hybrid (lift/lower)
                                 pipeline; order2 adds the skip-window
                                 multi-fault countermeasure pass; -emit
                                 also writes a standalone runnable ELF
  oracle [-cases LIST] [-harden hybrid|order2|patch] [-n N] [-seed S]
         [-variants N] [-workers N] [-json|-csv] [ORIG HARDENED]
                                 differential-execution oracle: harden
                                 each case, generate N inputs, and
                                 assert original/hardened equivalence
                                 off the fault path (exit status, output
                                 bytes, crash class); with two binary
                                 arguments, difference those instead
  verify [-cases LIST] [-pipeline hybrid|order2|patch|all] [-json|-csv] [BIN]
                                 statically prove the hardening
                                 invariants, no simulation: catalog mode
                                 hardens each case through the selected
                                 pipelines and verifies check coverage,
                                 skip-window spacing, and doubled
                                 compares; with a binary argument, runs
                                 the machine-level check-coverage proof
                                 on it; any finding exits 1
  cases -dir DIR                 emit the registered case-study corpus
  cfg [-harden] BIN              CFG of the lifted IR in Graphviz dot
                                 (figures 4/5 with -harden)
  experiments [-only NAME]       regenerate the paper's tables and claims
  pipeline                       describe the two pipelines

MODELS is a comma-separated list of fault models: skip, bitflip,
reg-flip, multi-skip, data-flip — or both (skip+bitflip), all.
`)
}

// parse runs a subcommand's flag set over args. The cli package builds
// silent flag sets (errors returned, nothing printed), so -h/-help is
// handled here: print the flag defaults to stderr and exit 0 — a help
// request is not an error. Parse failures are usage errors (exit 2).
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "usage: r2r %s [flags] ...\nflags:\n", fs.Name())
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		os.Exit(0)
	}
	if err != nil {
		return usageError{err: err}
	}
	return nil
}

func loadBinary(path string) (*reinforce.Binary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return reinforce.ParseELF(data)
}

func saveBinary(bin *reinforce.Binary, path string) error {
	img, err := bin.Bytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, img, 0o755)
}

func cmdAsm(args []string) error {
	fs, f := cli.Asm()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("want exactly one source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	bin, err := reinforce.Assemble(string(src))
	if err != nil {
		return err
	}
	if err := saveBinary(bin, f.Out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes of code)\n", f.Out, bin.CodeSize())
	return nil
}

func cmdInfo(args []string) error {
	if len(args) != 1 {
		return usagef("want exactly one binary")
	}
	bin, err := loadBinary(args[0])
	if err != nil {
		return err
	}
	fmt.Print(reinforce.Describe(bin))
	return nil
}

func cmdDisasm(args []string) error {
	if len(args) != 1 {
		return usagef("want exactly one binary")
	}
	bin, err := loadBinary(args[0])
	if err != nil {
		return err
	}
	listing, err := reinforce.Disassemble(bin)
	if err != nil {
		return err
	}
	fmt.Print(listing)
	return nil
}

func cmdRun(args []string) error {
	fs, f := cli.Run()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("want exactly one binary")
	}
	bin, err := loadBinary(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := reinforce.Run(bin, []byte(f.In))
	if err != nil {
		return fmt.Errorf("crashed after %d steps: %w", res.Steps, err)
	}
	os.Stdout.Write(res.Stdout)
	os.Stderr.Write(res.Stderr)
	fmt.Printf("[exit %d after %d steps]\n", res.ExitCode, res.Steps)
	return nil
}

func cmdTrace(args []string) error {
	fs, f := cli.Trace()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("want exactly one binary")
	}
	bin, err := loadBinary(fs.Arg(0))
	if err != nil {
		return err
	}
	tr := reinforce.CaptureTrace(bin, []byte(f.In))
	for _, e := range tr.Entries {
		fmt.Printf("%#x\n", e.Addr)
	}
	fmt.Println(tr.Summary())
	return nil
}

func cmdLift(args []string) error {
	if len(args) != 1 {
		return usagef("want exactly one binary")
	}
	bin, err := loadBinary(args[0])
	if err != nil {
		return err
	}
	irText, err := reinforce.LiftIR(bin)
	if err != nil {
		return err
	}
	fmt.Print(irText)
	return nil
}

// parseModels resolves a -model flag value; failures are usage errors.
func parseModels(s string) ([]reinforce.Model, error) {
	models, err := reinforce.ParseModels(s)
	if err != nil {
		return nil, usageError{err: err}
	}
	return models, nil
}

func cmdFaults(args []string) error {
	fs, f := cli.Faults()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("want exactly one binary")
	}
	models, err := parseModels(f.Model)
	if err != nil {
		return err
	}
	bin, err := loadBinary(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := reinforce.FaultScan(bin, []byte(f.Good), []byte(f.Bad), models...)
	if err != nil {
		return err
	}
	fmt.Println(rep.Summary())
	for _, s := range rep.VulnerableSites() {
		fmt.Printf("  vulnerable: %#x %-8s (%d successful faults, class %s)\n",
			s.Addr, s.Mnemonic, s.Count, fault.Classify(s.Op))
	}
	return nil
}

// openStore builds the content-addressed campaign result cache behind
// -cache-dir, or nil when the flag is unset (no caching).
func openStore(dir string) (*campaign.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return campaign.NewStore(dir)
}

// progressMeter builds the standard stderr progress callback shared by
// the campaign and corpus commands, or nil under -q. It redraws
// sparingly: every 256 injections and at completion.
func progressMeter(quiet bool) func(campaign.Progress) {
	if quiet {
		return nil
	}
	return func(p campaign.Progress) {
		if p.Done%256 == 0 || p.Done == p.Total {
			fmt.Fprintf(os.Stderr, "\r[%d/%d %s] %d/%d injections",
				p.JobIndex+1, p.Jobs, p.Job, p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
}

// writeSummaries emits campaign summaries in the selected format: JSON,
// CSV, or the text table followed by the per-site vulnerability lines.
func writeSummaries(out io.Writer, asJSON, asCSV bool, sums []campaign.Summary) error {
	switch {
	case asJSON:
		return campaign.WriteJSON(out, sums)
	case asCSV:
		return campaign.WriteCSV(out, sums)
	}
	fmt.Fprint(out, campaign.SummaryTable(sums))
	for _, sum := range sums {
		for _, site := range sum.Sites {
			fmt.Fprintf(out, "  %s vulnerable: %#x %-8s (%d successful faults, class %s)\n",
				sum.Name, site.Addr, site.Mnemonic, site.Successes, site.Class)
		}
	}
	return nil
}

// profileTo starts a CPU profile (when cpuPath is non-empty) and
// returns an idempotent stop function that ends it and, when memPath is
// non-empty, writes a garbage-collected heap profile. Callers defer the
// stop (so early errors still end the CPU profile) and also invoke it
// explicitly on the success path to surface profile-write errors.
func profileTo(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // report live allocations, not GC timing luck
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// cmdCampaign drives the parallel campaign engine: one or more
// binaries swept under the same oracles, with optional sharding,
// order-2 multi-fault pairs, and machine-readable output.
func cmdCampaign(args []string, out io.Writer) error {
	fs, f := cli.Campaign()
	if err := parse(fs, args); err != nil {
		return err
	}
	stopProf, err := profileTo(f.CPUProfile, f.MemProfile)
	if err != nil {
		return err
	}
	defer stopProf()
	if fs.NArg() < 1 {
		return usagef("want at least one binary")
	}
	if f.Order != 1 && f.Order != 2 {
		return usagef("unsupported fault order %d: want 1 or 2", f.Order)
	}
	models, err := parseModels(f.Model)
	if err != nil {
		return err
	}
	shard, err := campaign.ParseShard(f.Shard)
	if err != nil {
		return usageError{err: err}
	}
	store, err := openStore(f.CacheDir)
	if err != nil {
		return err
	}

	var jobs []campaign.Job
	for _, path := range fs.Args() {
		bin, err := loadBinary(path)
		if err != nil {
			return err
		}
		jobs = append(jobs, campaign.Job{
			Name: filepath.Base(path),
			Campaign: fault.Campaign{
				Binary: bin,
				Good:   []byte(f.Good),
				Bad:    []byte(f.Bad),
				Models: models,
			},
		})
	}

	opt := campaign.Options{Workers: f.Workers, Shard: shard, MaxPairs: f.MaxPairs, Store: store,
		Prune: f.Prune, Progress: progressMeter(f.Quiet)}

	var sums []campaign.Summary
	if f.Order == 2 {
		// Order-2 runs per binary: the pair list is derived from each
		// binary's own order-1 sweep, so there is no batch fast path.
		for _, job := range jobs {
			start := time.Now()
			res, err := campaign.RunOrder2Result(job.Campaign, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", job.Name, err)
			}
			sum := campaign.SummarizeOrder2(job.Name, res.Report)
			sum.ElapsedMS = time.Since(start).Milliseconds()
			if store != nil {
				sum.Cache = &res.Cache
			}
			sum.Prune = res.Prune
			sums = append(sums, sum)
		}
	} else {
		results := campaign.RunAll(jobs, opt)
		for _, r := range results {
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.Name, r.Err)
			}
			sum := campaign.Summarize(r.Name, r.Report)
			sum.ElapsedMS = r.Elapsed.Milliseconds()
			if store != nil {
				cache := r.Cache
				sum.Cache = &cache
			}
			sum.Prune = r.Prune
			sums = append(sums, sum)
		}
	}
	if err := stopProf(); err != nil {
		return err
	}
	return writeSummaries(out, f.JSON, f.CSV, sums)
}

// corpusStepLimit is the reference-run budget corpus campaigns use —
// generous enough for hardened variants of every registered case.
const corpusStepLimit = 32 << 20

// cmdCorpus sweeps the registered case-study corpus as one batched,
// cache-sharing run: every selected case at order 1 (and, by default,
// order 2), sharing one content-addressed store, with per-case and
// aggregate survival summaries.
func cmdCorpus(args []string, out io.Writer) error {
	fs, f := cli.Corpus()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("corpus takes no positional arguments (case studies come from -cases)")
	}
	if f.Order < 1 || f.Order > 3 {
		return usagef("unsupported fault order %d: want 1, 2 or 3", f.Order)
	}
	stopProf, err := profileTo(f.CPUProfile, f.MemProfile)
	if err != nil {
		return err
	}
	defer stopProf()
	models, err := parseModels(f.Model)
	if err != nil {
		return err
	}
	selected, err := cases.ParseCases(f.Cases)
	if err != nil {
		return usageError{err: err}
	}
	store, err := openStore(f.CacheDir)
	if err != nil {
		return err
	}

	var jobs []campaign.CorpusJob
	for _, c := range selected {
		bin, err := c.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		jobs = append(jobs, campaign.CorpusJob{
			Case: c.Name,
			Campaign: fault.Campaign{
				Binary: bin, Good: c.Good, Bad: c.Bad,
				Models: models, StepLimit: corpusStepLimit,
				DedupSites: f.Dedup, MaxFaults: f.MaxFaults,
			},
		})
	}
	orders := []int{1}
	for o := 2; o <= f.Order; o++ {
		orders = append(orders, o)
	}
	opt := campaign.CorpusOptions{
		Options: campaign.Options{Workers: f.Workers, MaxPairs: f.MaxPairs,
			MaxTriples: f.MaxTriples, Store: store,
			Prune: f.Prune, Progress: progressMeter(f.Quiet)},
		Orders:        orders,
		ParallelCells: f.ParallelCells,
	}
	res, err := campaign.RunCorpus(jobs, opt)
	if err != nil {
		return err
	}
	if errs := res.Errs(); len(errs) > 0 {
		// Surface every failing cell, not just the first — the sweep
		// deliberately continued past each one.
		return errors.Join(errs...)
	}
	if err := stopProf(); err != nil {
		return err
	}
	return writeSummaries(out, f.JSON, f.CSV, res.Summaries())
}

func cmdPatch(args []string, out io.Writer) error {
	fs, f := cli.Patch()
	if err := parse(fs, args); err != nil {
		return err
	}
	stopProf, err := profileTo(f.CPUProfile, f.MemProfile)
	if err != nil {
		return err
	}
	defer stopProf()
	if fs.NArg() != 1 {
		return usagef("want exactly one binary")
	}
	if f.Order != 1 && f.Order != 2 {
		return usagef("unsupported hardening order %d: want 1 or 2", f.Order)
	}
	models, err := parseModels(f.Model)
	if err != nil {
		return err
	}
	bin, err := loadBinary(fs.Arg(0))
	if err != nil {
		return err
	}
	store, err := openStore(f.CacheDir)
	if err != nil {
		return err
	}
	quiet := f.JSON || f.CSV
	opt := reinforce.FaulterPatcherOptions{
		Good:     []byte(f.Good),
		Bad:      []byte(f.Bad),
		Models:   models,
		Order:    f.Order,
		MaxPairs: f.MaxPairs,
		Store:    store,
	}
	if !quiet {
		opt.Log = func(s string) { fmt.Fprintln(out, s) }
	}
	res, err := reinforce.HardenFaulterPatcher(bin, opt)
	if err != nil {
		return err
	}
	// Post-pass gate: prove the order-2 pattern invariants on the
	// patched program before anything is written. The driver only
	// escalates sites its pair campaign proved vulnerable, so a
	// converged run may contain no order-2 pattern at all — nothing to
	// verify then.
	if f.Order == 2 && hasOrder2(res.Program) {
		if vfs := static.VerifyBIR(res.Program, birConfig()); len(vfs) > 0 {
			for _, fd := range vfs {
				fmt.Fprintln(os.Stderr, fd.String())
			}
			return fmt.Errorf("static verification failed: %d hardening invariant violation(s)", len(vfs))
		}
	}
	path := f.Out
	if path == "" {
		path = fs.Arg(0) + ".hardened"
	}
	if err := saveBinary(res.Binary, path); err != nil {
		return err
	}
	var emitted string
	if f.Emit != "" {
		digest, err := emit.WriteFile(f.Emit, res.Binary)
		if err != nil {
			return err
		}
		emitted = fmt.Sprintf("emitted %s (digest %s)\n", f.Emit, digest)
	}
	if err := stopProf(); err != nil {
		return err
	}
	switch {
	case f.JSON:
		return res.WriteJSON(out)
	case f.CSV:
		return res.WriteCSV(out)
	}
	fmt.Fprint(out, res.Summary())
	fmt.Fprintf(out, "wrote %s\n", path)
	fmt.Fprint(out, emitted)
	return nil
}

func cmdHybrid(args []string) error {
	fs, f := cli.Hybrid()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("want exactly one binary")
	}
	opt := reinforce.HybridOptions{}
	switch f.Harden {
	case "", "branch":
	case "order2":
		opt.SkipWindow = true
	default:
		return usagef("unknown -harden %q: want branch or order2", f.Harden)
	}
	bin, err := loadBinary(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := reinforce.HardenHybrid(bin, opt)
	if err != nil {
		return err
	}
	// Post-pass gate: prove the countermeasure invariants on the
	// artifact before it is written anywhere.
	vfs, err := verifyHybridResult(res, opt.SkipWindow)
	if err != nil {
		return err
	}
	if len(vfs) > 0 {
		for _, fd := range vfs {
			fmt.Fprintln(os.Stderr, fd.String())
		}
		return fmt.Errorf("static verification failed: %d hardening invariant violation(s)", len(vfs))
	}
	fmt.Printf("protected %d branches; code size %d -> %d bytes (%.2f%% overhead)\n",
		res.Stats.BranchesProtected, res.OriginalCodeSize, res.Binary.CodeSize(), res.Overhead()*100)
	if opt.SkipWindow {
		fmt.Printf("skip-window: %d blocks instrumented, %d computations duplicated, %d counter increments\n",
			res.SWStats.BlocksInstrumented, res.SWStats.Duplicated, res.SWStats.Increments)
	}
	if f.DumpAsm {
		fmt.Print(res.Asm)
	}
	path := f.Out
	if path == "" {
		path = fs.Arg(0) + ".hybrid"
	}
	if err := saveBinary(res.Binary, path); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if f.Emit != "" {
		digest, err := emit.WriteFile(f.Emit, res.Binary)
		if err != nil {
			return err
		}
		fmt.Printf("emitted %s (digest %s)\n", f.Emit, digest)
	}
	return nil
}

// cmdOracle runs the differential-execution oracle: with no positional
// arguments, each selected catalog case is hardened through the chosen
// pipeline and differenced against its original across a generated
// input corpus (plus optional fuzz variants); with two binaries, those
// are differenced directly under a case-agnostic corpus. Any divergence
// is a runtime failure (exit 1) after the report is written.
func cmdOracle(args []string, out io.Writer) error {
	fs, f := cli.Oracle()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 && fs.NArg() != 2 {
		return usagef("want no binaries (catalog mode) or exactly two (ORIG HARDENED)")
	}
	if f.N < 1 {
		return usagef("-n %d: want at least one input", f.N)
	}
	opt := oracle.Options{Workers: f.Workers}

	var reports []*oracle.CaseReport
	if fs.NArg() == 2 {
		orig, err := loadBinary(fs.Arg(0))
		if err != nil {
			return err
		}
		hard, err := loadBinary(fs.Arg(1))
		if err != nil {
			return err
		}
		start := time.Now()
		rep := oracle.Diff(orig, hard, oracle.GenericInputs(f.N, f.Seed, 0), opt)
		reports = append(reports, &oracle.CaseReport{
			Case:           filepath.Base(fs.Arg(0)),
			Pipeline:       "external",
			HardenedDigest: hard.Digest(),
			Inputs:         rep.Inputs,
			Divergences:    rep.Divergences,
			Divergent:      rep.Divergent,
			Truncated:      rep.Truncated,
			ElapsedMS:      time.Since(start).Milliseconds(),
		})
	} else {
		selected, err := cases.ParseCases(f.Cases)
		if err != nil {
			return usageError{err: err}
		}
		switch f.Harden {
		case oracle.PipelineHybrid, oracle.PipelineOrder2, oracle.PipelinePatch:
		default:
			return usagef("unknown -harden %q: want %s, %s or %s",
				f.Harden, oracle.PipelineHybrid, oracle.PipelineOrder2, oracle.PipelinePatch)
		}
		for _, c := range selected {
			rep, err := oracle.RunCase(c, f.Harden, f.N, f.Seed, opt)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
			for _, v := range oracle.Variants(c, f.Variants, f.Seed) {
				vrep, err := oracle.RunCase(v, f.Harden, f.N, f.Seed, opt)
				if err != nil {
					return err
				}
				vrep.Variant = true
				reports = append(reports, vrep)
			}
		}
	}

	if err := writeOracleReports(out, f.JSON, f.CSV, reports); err != nil {
		return err
	}
	divergences := 0
	for _, r := range reports {
		divergences += r.Divergences
	}
	if divergences > 0 {
		return fmt.Errorf("%d behavioral divergence(s) between original and hardened binaries", divergences)
	}
	return nil
}

// writeOracleReports renders oracle reports in the selected format:
// JSON, CSV, or a text table followed by itemized divergences.
func writeOracleReports(out io.Writer, asJSON, asCSV bool, reports []*oracle.CaseReport) error {
	if asJSON {
		return report.WriteJSON(out, reports)
	}
	tab := &report.Table{
		Title:  "Differential-execution oracle — original vs hardened, off the fault path",
		Header: []string{"case", "pipeline", "inputs", "divergences", "hardened digest"},
	}
	for _, r := range reports {
		name := r.Case
		if r.Variant {
			name += " (variant)"
		}
		tab.AddRow(name, r.Pipeline, fmt.Sprint(r.Inputs), fmt.Sprint(r.Divergences), r.HardenedDigest[:12])
	}
	if asCSV {
		return tab.WriteCSV(out)
	}
	fmt.Fprint(out, tab)
	for _, r := range reports {
		for _, d := range r.Divergent {
			fmt.Fprintf(out, "  %s: input %d (%s) diverges on %s: original %s, hardened %s\n",
				r.Case, d.Index, d.Input, d.Field, d.Original, d.Hardened)
		}
		if r.Truncated {
			fmt.Fprintf(out, "  %s: divergence list truncated (%d total)\n", r.Case, r.Divergences)
		}
	}
	return nil
}

// cmdVerify runs the static countermeasure verifier: with no
// positional arguments, each selected catalog case is hardened through
// the selected pipelines and its artifact is proven against the
// matching invariants (machine check coverage and — for order2 — the
// IR skip-window structure for the hybrid route; doubled compares and
// the fault-handler shape for the patch route); with a binary
// argument, the machine-level check-coverage proof runs on it
// directly. Findings are a runtime failure (exit 1) after the report
// is written; an empty report is a structural proof, not a sampled
// verdict.
func cmdVerify(args []string, out io.Writer) error {
	fs, f := cli.Verify()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return usagef("want at most one binary")
	}

	var findings []static.Finding
	artifacts := 0
	if fs.NArg() == 1 {
		bin, err := loadBinary(fs.Arg(0))
		if err != nil {
			return err
		}
		a, err := static.Analyze(bin)
		if err != nil {
			return err
		}
		findings = a.CheckCoverage()
		artifacts = 1
	} else {
		selected, err := cases.ParseCases(f.Cases)
		if err != nil {
			return usageError{err: err}
		}
		pipelines, err := verifyPipelines(f.Pipeline)
		if err != nil {
			return err
		}
		for _, c := range selected {
			for _, p := range pipelines {
				pf, err := verifyCase(c, p)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", c.Name, p, err)
				}
				findings = append(findings, tagFindings(c.Name+"."+p, pf)...)
				artifacts++
			}
		}
	}

	switch {
	case f.JSON:
		if err := static.WriteFindingsJSON(out, findings); err != nil {
			return err
		}
	case f.CSV:
		if err := static.WriteFindingsCSV(out, findings); err != nil {
			return err
		}
	default:
		for _, fd := range findings {
			fmt.Fprintln(out, fd.String())
		}
		fmt.Fprintf(out, "verified %d artifact(s): %d finding(s)\n", artifacts, len(findings))
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d hardening invariant violation(s)", len(findings))
	}
	return nil
}

// verifyPipelines expands the -pipeline flag value.
func verifyPipelines(s string) ([]string, error) {
	switch s {
	case "all":
		return []string{"hybrid", "order2", "patch"}, nil
	case "hybrid", "order2", "patch":
		return []string{s}, nil
	}
	return nil, usagef("unknown -pipeline %q: want hybrid, order2, patch or all", s)
}

// verifyCase hardens one catalog case through one pipeline and proves
// the invariants that pipeline promises.
func verifyCase(c *cases.Case, pipeline string) ([]static.Finding, error) {
	bin, err := c.Build()
	if err != nil {
		return nil, err
	}
	switch pipeline {
	case "hybrid", "order2":
		res, err := reinforce.HardenHybrid(bin, reinforce.HybridOptions{SkipWindow: pipeline == "order2"})
		if err != nil {
			return nil, err
		}
		return verifyHybridResult(res, pipeline == "order2")
	case "patch":
		// The blanket order-2 patterns exercise every pattern shape
		// without a simulation campaign; the Faulter+Patcher driver
		// gates its own output (see cmdPatch).
		res, err := patch.HardenAll(bin, patch.StyleOrder2)
		if err != nil {
			return nil, err
		}
		return static.VerifyBIR(res.Program, birConfig()), nil
	}
	return nil, usagef("unknown pipeline %q", pipeline)
}

// verifyHybridResult proves a hybrid artifact: the machine-level check
// coverage of the lowered binary and, when the skip-window pass ran,
// the IR-level spacing/counter/two-stage structure of the module it
// was lowered from.
func verifyHybridResult(res *reinforce.HybridResult, skipWindow bool) ([]static.Finding, error) {
	a, err := static.Analyze(res.Binary)
	if err != nil {
		return nil, err
	}
	findings := a.CheckCoverage()
	if skipWindow {
		findings = append(findings, static.VerifyIR(res.Module, irConfig())...)
	}
	return findings, nil
}

// irConfig and birConfig bind the verifier to the toolchain's actual
// cell names, skip window, and fault-handler label.
func irConfig() static.IRConfig {
	return static.IRConfig{OkCell: passes.CellSWOk, CtrCell: passes.CellStepCtr, Window: passes.DefaultSkipWindow}
}

func birConfig() static.BIRConfig {
	return static.BIRConfig{FaultHandler: patch.FaulthandlerLabel}
}

// hasOrder2 reports whether any instruction carries an order-2
// pattern mark.
func hasOrder2(p *bir.Program) bool {
	for _, b := range p.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Order2 {
				return true
			}
		}
	}
	return false
}

// tagFindings prefixes each finding's location with the artifact it
// came from (case.pipeline).
func tagFindings(tag string, fs []static.Finding) []static.Finding {
	out := make([]static.Finding, len(fs))
	for i, f := range fs {
		if f.Where == "" {
			f.Where = tag
		} else {
			f.Where = tag + "/" + f.Where
		}
		out[i] = f
	}
	return out
}

func cmdCases(args []string) error {
	fs, f := cli.Cases()
	if err := parse(fs, args); err != nil {
		return err
	}
	for _, c := range cases.Corpus() {
		srcPath := filepath.Join(f.Dir, c.Name+".s")
		if err := os.WriteFile(srcPath, []byte(c.Source), 0o644); err != nil {
			return err
		}
		bin, err := c.Build()
		if err != nil {
			return err
		}
		binPath := filepath.Join(f.Dir, c.Name+".elf")
		if err := saveBinary(bin, binPath); err != nil {
			return err
		}
		goodPath := filepath.Join(f.Dir, c.Name+".good")
		if err := os.WriteFile(goodPath, c.Good, 0o644); err != nil {
			return err
		}
		badPath := filepath.Join(f.Dir, c.Name+".bad")
		if err := os.WriteFile(badPath, c.Bad, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s, %s, %s, %s\n", srcPath, binPath, goodPath, badPath)
	}
	return nil
}

func cmdCFG(args []string) error {
	fs, f := cli.CFG()
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("want exactly one binary")
	}
	bin, err := loadBinary(fs.Arg(0))
	if err != nil {
		return err
	}
	dot, err := reinforce.CFGDot(bin, f.Harden)
	if err != nil {
		return err
	}
	fmt.Print(dot)
	return nil
}

func cmdExperiments(args []string) error {
	fs, f := cli.Experiments()
	if err := parse(fs, args); err != nil {
		return err
	}

	type exp struct {
		name string
		run  func() (*report.Table, error)
	}
	all := []exp{
		{"table4", func() (*report.Table, error) { t, _, err := experiments.TableIV(); return t, err }},
		{"table5", func() (*report.Table, error) { t, _, err := experiments.TableV(); return t, err }},
		{"skip", func() (*report.Table, error) { t, _, err := experiments.ClaimSkip(); return t, err }},
		{"bitflip", func() (*report.Table, error) { t, _, err := experiments.ClaimBitflip(); return t, err }},
		{"class", func() (*report.Table, error) { t, _, err := experiments.ClaimClass(); return t, err }},
		{"dup", func() (*report.Table, error) { t, _, err := experiments.ClaimDup(); return t, err }},
		{"figures", func() (*report.Table, error) { t, _, err := experiments.Figures(); return t, err }},
		{"beyond", func() (*report.Table, error) { t, _, err := experiments.TableBeyond(); return t, err }},
		{"beyond2", func() (*report.Table, error) { t, _, err := experiments.TableBeyond2(); return t, err }},
		{"beyond3", func() (*report.Table, error) { t, _, err := experiments.TableBeyond3(); return t, err }},
		{"corpus", func() (*report.Table, error) { t, _, err := experiments.TableCorpus(); return t, err }},
		{"variants", func() (*report.Table, error) { t, _, err := experiments.TableVariants(); return t, err }},
	}
	ran := 0
	for _, e := range all {
		if f.Only != "" && e.name != f.Only {
			continue
		}
		tab, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(tab)
		ran++
	}
	if ran == 0 {
		return usagef("unknown experiment %q", f.Only)
	}
	return nil
}

func cmdPipeline() error {
	fmt.Print(strings.TrimLeft(`
Rewrite-to-reinforce pipelines (paper Fig. 2 and 3)

Faulter+Patcher (reassembleable disassembly, targeted):

    binary ──▶ faulter (emulated fault campaign: skip / bit flip)
                  │ list of successful faults
                  ▼
               patcher (Tables I-III local patterns at each site)
                  │ reassemble
                  ▼
          patched binary ──▶ faulter again ... until no fault remains
                             or none is fixable (fixed point)
                  │ with -order 2: fault *pairs* next, escalating the
                  ▼ sites of successful pairs to order-2 patterns
          multi-fault-hardened binary

Hybrid compiler-binary (full translation, holistic):

    binary ──▶ lift to compiler IR (CPU cells, explicit flags)
                  │ cleanup passes (cellprop, const fold, flag DCE)
                  ▼
               conditional branch hardening pass (§V-B, Alg. 1, Fig. 5):
                  per-block UIDs, duplicated edge checksums D1/D2,
                  re-evaluated comparison C2, per-edge validation chains
                  │ with -harden order2: the skip-window pass next —
                  │ spaced duplicates, step counters, chained checks
                  │ countermeasure-safe cleanup
                  ▼
               lower to x86-64 (cells in .vcpu, cmp/br fusion)
                  │
                  ▼
          hardened binary ──▶ same faulter verifies the result
`, "\n"))
	return nil
}
