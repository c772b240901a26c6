// Package cli defines the r2r subcommand surface — every command's
// flag set and argument arity — as data. Both the CLI binary
// (cmd/r2r) and the documentation checker (tools/doccheck) consume the
// same definitions, so a flag added, renamed, or removed here is
// validated against every `./r2r …` invocation quoted in README and
// docs by the CI docs job: command-line drift breaks the build instead
// of the documentation.
package cli

import (
	"flag"
	"io"
)

// modelHelp documents the -model syntax once for every command that
// accepts it.
const modelHelp = "comma-separated fault models: skip, bitflip, reg-flip, multi-skip, data-flip, both, all"

// newFS builds a silent flag set: parse errors are returned, not
// printed, so callers control the error surface.
func newFS(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// AsmFlags are the `r2r asm` flags.
type AsmFlags struct {
	Out string
}

// Asm builds the `r2r asm` flag set.
func Asm() (*flag.FlagSet, *AsmFlags) {
	fs, f := newFS("asm"), &AsmFlags{}
	fs.StringVar(&f.Out, "o", "a.elf", "output path")
	return fs, f
}

// RunFlags are the `r2r run` / `r2r trace` flags.
type RunFlags struct {
	In string
}

// Run builds the `r2r run` flag set.
func Run() (*flag.FlagSet, *RunFlags) {
	fs, f := newFS("run"), &RunFlags{}
	fs.StringVar(&f.In, "in", "", "stdin contents")
	return fs, f
}

// Trace builds the `r2r trace` flag set.
func Trace() (*flag.FlagSet, *RunFlags) {
	fs, f := newFS("trace"), &RunFlags{}
	fs.StringVar(&f.In, "in", "", "stdin contents")
	return fs, f
}

// FaultsFlags are the `r2r faults` flags.
type FaultsFlags struct {
	Good, Bad, Model string
}

// Faults builds the `r2r faults` flag set.
func Faults() (*flag.FlagSet, *FaultsFlags) {
	fs, f := newFS("faults"), &FaultsFlags{}
	fs.StringVar(&f.Good, "good", "", "accepted input")
	fs.StringVar(&f.Bad, "bad", "", "rejected input")
	fs.StringVar(&f.Model, "model", "both", modelHelp)
	return fs, f
}

// cacheDirHelp documents the -cache-dir syntax once for every command
// that accepts it.
const cacheDirHelp = "directory for the content-addressed campaign result cache (reruns over unchanged binaries replay from it)"

// CampaignFlags are the `r2r campaign` flags.
type CampaignFlags struct {
	Good, Bad, Model, Shard string
	CacheDir                string
	CPUProfile, MemProfile  string
	Order, MaxPairs         int
	Workers                 int
	Prune                   bool
	JSON, CSV, Quiet        bool
}

// pruneHelp documents the -prune switch once for every command that
// accepts it.
const pruneHelp = "report the pruning accounting: the summary gains prune columns counting the injections the screens answered without simulating them (undecodable bit flips, transparent first faults, pair/triple states that re-converge to the reference run); the screens always run and order 3 always reports"

// Campaign builds the `r2r campaign` flag set.
func Campaign() (*flag.FlagSet, *CampaignFlags) {
	fs, f := newFS("campaign"), &CampaignFlags{}
	fs.StringVar(&f.Good, "good", "", "accepted input")
	fs.StringVar(&f.Bad, "bad", "", "rejected input")
	fs.StringVar(&f.Model, "model", "both", modelHelp)
	fs.IntVar(&f.Order, "order", 1, "fault order: 1 = single faults, 2 = add fault pairs pruned from the order-1 sweep")
	fs.IntVar(&f.MaxPairs, "max-pairs", 0, "order-2 pair budget (default 4096)")
	fs.IntVar(&f.Workers, "workers", 0, "parallel simulations per campaign (default GOMAXPROCS)")
	fs.StringVar(&f.Shard, "shard", "", "simulate only shard i/n of each fault list (e.g. 0/4); with -order 2 the shard applies to the pair list")
	fs.StringVar(&f.CacheDir, "cache-dir", "", cacheDirHelp)
	fs.BoolVar(&f.Prune, "prune", false, pruneHelp)
	fs.BoolVar(&f.JSON, "json", false, "emit JSON summaries on stdout")
	fs.BoolVar(&f.CSV, "csv", false, "emit CSV summaries on stdout")
	fs.BoolVar(&f.Quiet, "q", false, "suppress the stderr progress meter")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", cpuProfileHelp)
	fs.StringVar(&f.MemProfile, "memprofile", "", memProfileHelp)
	return fs, f
}

// cpuProfileHelp and memProfileHelp document the pprof switches once
// for every command that accepts them.
const (
	cpuProfileHelp = "write a CPU profile of the run to this file (inspect with go tool pprof)"
	memProfileHelp = "write an allocation profile taken at exit to this file (inspect with go tool pprof)"
)

// CorpusFlags are the `r2r corpus` flags.
type CorpusFlags struct {
	Cases, Model, CacheDir                 string
	CPUProfile, MemProfile                 string
	Order, MaxPairs, MaxTriples, MaxFaults int
	Workers, ParallelCells                 int
	Dedup, Prune                           bool
	JSON, CSV, Quiet                       bool
}

// Corpus builds the `r2r corpus` flag set.
func Corpus() (*flag.FlagSet, *CorpusFlags) {
	fs, f := newFS("corpus"), &CorpusFlags{}
	fs.StringVar(&f.Cases, "cases", "all", "comma-separated case studies from the registered catalog, or all")
	fs.StringVar(&f.Model, "model", "both", modelHelp)
	fs.IntVar(&f.Order, "order", 2, "maximum fault order: 1 = single-fault sweeps only, 2 = add the fault-pair stage per case (the order-1 sweep is shared through the store), 3 = add the budget-capped pruned fault-triple stage")
	fs.IntVar(&f.MaxPairs, "max-pairs", 0, "order-2 pair budget per case (default 4096)")
	fs.IntVar(&f.MaxTriples, "max-triples", 0, "order-3 triple budget per case (default 2048)")
	fs.IntVar(&f.MaxFaults, "max-faults", 0, "cap injections per campaign (0 = unlimited; the CI smoke budget)")
	fs.IntVar(&f.Workers, "workers", 0, "global simulation worker budget shared by every concurrently running cell (default GOMAXPROCS)")
	fs.IntVar(&f.ParallelCells, "parallel-cells", 1, "case chains executed concurrently on the shared worker pool (1 = sequential; results are bit-identical either way)")
	fs.BoolVar(&f.Dedup, "dedup", true, "fault each static site once instead of every dynamic occurrence (corpus-scale default; -dedup=false is the paper's exhaustive mode)")
	fs.StringVar(&f.CacheDir, "cache-dir", "", cacheDirHelp)
	fs.BoolVar(&f.Prune, "prune", false, pruneHelp)
	fs.BoolVar(&f.JSON, "json", false, "emit JSON summaries (per case plus the corpus aggregate) on stdout")
	fs.BoolVar(&f.CSV, "csv", false, "emit CSV summaries on stdout")
	fs.BoolVar(&f.Quiet, "q", false, "suppress the stderr progress meter")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", cpuProfileHelp)
	fs.StringVar(&f.MemProfile, "memprofile", "", memProfileHelp)
	return fs, f
}

// PatchFlags are the `r2r patch` flags.
type PatchFlags struct {
	Good, Bad, Model, Out  string
	CacheDir               string
	CPUProfile, MemProfile string
	Order, MaxPairs        int
	JSON, CSV              bool
}

// Patch builds the `r2r patch` flag set.
func Patch() (*flag.FlagSet, *PatchFlags) {
	fs, f := newFS("patch"), &PatchFlags{}
	fs.StringVar(&f.Good, "good", "", "accepted input")
	fs.StringVar(&f.Bad, "bad", "", "rejected input")
	fs.StringVar(&f.Model, "model", "both", modelHelp)
	fs.StringVar(&f.Out, "o", "", "output path (default: input with .hardened suffix)")
	fs.IntVar(&f.Order, "order", 1, "hardening order: 1 = single-fault fixed point, 2 = escalate sites of successful fault pairs to order-2 patterns")
	fs.IntVar(&f.MaxPairs, "max-pairs", 0, "order-2 pair budget per escalation round (default 4096)")
	fs.StringVar(&f.CacheDir, "cache-dir", "", cacheDirHelp)
	fs.BoolVar(&f.JSON, "json", false, "emit the iteration history as JSON on stdout")
	fs.BoolVar(&f.CSV, "csv", false, "emit the iteration history as CSV on stdout")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", cpuProfileHelp)
	fs.StringVar(&f.MemProfile, "memprofile", "", memProfileHelp)
	return fs, f
}

// HybridFlags are the `r2r hybrid` flags.
type HybridFlags struct {
	Out, Harden string
	DumpAsm     bool
}

// Hybrid builds the `r2r hybrid` flag set.
func Hybrid() (*flag.FlagSet, *HybridFlags) {
	fs, f := newFS("hybrid"), &HybridFlags{}
	fs.StringVar(&f.Out, "o", "", "output path (default: input + .hybrid)")
	fs.StringVar(&f.Harden, "harden", "branch", "countermeasure set: branch (conditional branch hardening) or order2 (branch + skip-window multi-fault hardening)")
	fs.BoolVar(&f.DumpAsm, "S", false, "print the generated assembly")
	return fs, f
}

// OracleFlags are the `r2r oracle` flags.
type OracleFlags struct {
	Cases, Harden string
	N, Variants   int
	Workers       int
	Seed          uint64
	JSON, CSV     bool
}

// Oracle builds the `r2r oracle` flag set.
func Oracle() (*flag.FlagSet, *OracleFlags) {
	fs, f := newFS("oracle"), &OracleFlags{}
	fs.StringVar(&f.Cases, "cases", "all", "comma-separated case studies from the registered catalog, or all")
	fs.StringVar(&f.Harden, "harden", "hybrid", "hardening pipeline under test: hybrid, order2 (hybrid + skip window) or patch (Faulter+Patcher)")
	fs.IntVar(&f.N, "n", 64, "generated inputs per differential run")
	fs.IntVar(&f.Variants, "variants", 0, "additionally screen N fuzz-generated variants per case and difference each survivor")
	fs.IntVar(&f.Workers, "workers", 0, "parallel input evaluations (default GOMAXPROCS; results are worker-count invariant)")
	fs.Uint64Var(&f.Seed, "seed", 1, "seed of the deterministic input and variant generators")
	fs.BoolVar(&f.JSON, "json", false, "emit per-case reports as JSON on stdout")
	fs.BoolVar(&f.CSV, "csv", false, "emit per-case reports as CSV on stdout")
	return fs, f
}

// VerifyFlags are the `r2r verify` flags.
type VerifyFlags struct {
	Cases, Pipeline string
	JSON, CSV       bool
}

// Verify builds the `r2r verify` flag set.
func Verify() (*flag.FlagSet, *VerifyFlags) {
	fs, f := newFS("verify"), &VerifyFlags{}
	fs.StringVar(&f.Cases, "cases", "all", "comma-separated case studies from the registered catalog, or all")
	fs.StringVar(&f.Pipeline, "pipeline", "all", "hardening pipelines to verify: hybrid (branch hardening), order2 (branch + skip window), patch (blanket order-2 patterns), or all")
	fs.BoolVar(&f.JSON, "json", false, "emit findings as a JSON array on stdout")
	fs.BoolVar(&f.CSV, "csv", false, "emit findings as CSV on stdout")
	return fs, f
}

// CasesFlags are the `r2r cases` flags.
type CasesFlags struct {
	Dir string
}

// Cases builds the `r2r cases` flag set.
func Cases() (*flag.FlagSet, *CasesFlags) {
	fs, f := newFS("cases"), &CasesFlags{}
	fs.StringVar(&f.Dir, "dir", ".", "output directory")
	return fs, f
}

// CFGFlags are the `r2r cfg` flags.
type CFGFlags struct {
	Harden bool
}

// CFG builds the `r2r cfg` flag set.
func CFG() (*flag.FlagSet, *CFGFlags) {
	fs, f := newFS("cfg"), &CFGFlags{}
	fs.BoolVar(&f.Harden, "harden", false, "apply conditional branch hardening first (figure 5)")
	return fs, f
}

// ExperimentsFlags are the `r2r experiments` flags.
type ExperimentsFlags struct {
	Only string
}

// Experiments builds the `r2r experiments` flag set.
func Experiments() (*flag.FlagSet, *ExperimentsFlags) {
	fs, f := newFS("experiments"), &ExperimentsFlags{}
	fs.StringVar(&f.Only, "only", "", "run a single experiment: table4, table5, skip, bitflip, class, dup, figures, beyond, beyond2, beyond3, corpus, variants")
	return fs, f
}

// Spec describes one subcommand for validation: its flag surface and
// positional-argument arity.
type Spec struct {
	Name    string
	MinArgs int
	MaxArgs int // < 0 means unbounded
	Flags   func() *flag.FlagSet
}

// noFlags builds an empty flag set for flagless commands.
func noFlags(name string) func() *flag.FlagSet {
	return func() *flag.FlagSet { return newFS(name) }
}

// Specs returns every r2r subcommand. The docs checker parses each
// documented invocation against the matching spec.
func Specs() []Spec {
	return []Spec{
		{"asm", 1, 1, func() *flag.FlagSet { fs, _ := Asm(); return fs }},
		{"info", 1, 1, noFlags("info")},
		{"disasm", 1, 1, noFlags("disasm")},
		{"run", 1, 1, func() *flag.FlagSet { fs, _ := Run(); return fs }},
		{"trace", 1, 1, func() *flag.FlagSet { fs, _ := Trace(); return fs }},
		{"lift", 1, 1, noFlags("lift")},
		{"faults", 1, 1, func() *flag.FlagSet { fs, _ := Faults(); return fs }},
		{"campaign", 1, -1, func() *flag.FlagSet { fs, _ := Campaign(); return fs }},
		{"corpus", 0, 0, func() *flag.FlagSet { fs, _ := Corpus(); return fs }},
		{"patch", 1, 1, func() *flag.FlagSet { fs, _ := Patch(); return fs }},
		{"hybrid", 1, 1, func() *flag.FlagSet { fs, _ := Hybrid(); return fs }},
		{"oracle", 0, 2, func() *flag.FlagSet { fs, _ := Oracle(); return fs }},
		{"verify", 0, 1, func() *flag.FlagSet { fs, _ := Verify(); return fs }},
		{"cases", 0, 0, func() *flag.FlagSet { fs, _ := Cases(); return fs }},
		{"cfg", 1, 1, func() *flag.FlagSet { fs, _ := CFG(); return fs }},
		{"experiments", 0, 0, func() *flag.FlagSet { fs, _ := Experiments(); return fs }},
		{"pipeline", 0, 0, noFlags("pipeline")},
		{"help", 0, 0, noFlags("help")},
	}
}

// Lookup resolves a subcommand name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
