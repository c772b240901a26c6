// Package reinforce is the public API of rewrite-to-reinforce: a pure-Go
// reproduction of "Rewrite to Reinforce: Rewriting the Binary to Apply
// Countermeasures against Fault Injection" (DAC 2021).
//
// The library hardens static x86-64 binaries against fault-injection
// attacks without source code, via two static binary-rewriting
// pipelines:
//
//   - HardenFaulterPatcher — the simulation-driven iterative loop: an
//     emulated fault campaign (instruction skip / single bit flip)
//     locates vulnerable instructions, and each one is replaced with the
//     hardened local patterns of the paper's Tables I–III; the loop
//     repeats until no successful fault remains or none is fixable.
//   - HardenHybrid — the full-translation route: the binary is lifted
//     to a compiler IR, the conditional-branch-hardening countermeasure
//     (per-block UIDs, duplicated edge checksums, re-evaluated
//     comparisons, per-edge validation chains) is applied as an IR pass,
//     and the module is lowered back to a working executable.
//
// Everything runs against this repository's own substrate: assembler,
// ELF64 reader/writer, x86-64 subset emulator, binary IR, compiler IR.
// See docs/ARCHITECTURE.md for the system walkthrough,
// docs/COUNTERMEASURES.md for each countermeasure's threat model, and
// docs/EXPERIMENTS.md for the paper-vs-measured results.
//
// Quick start:
//
//	c := reinforce.Pincheck()
//	bin := c.MustBuild()
//	rep, _ := reinforce.FaultScan(bin, c.Good, c.Bad, reinforce.ModelSkip)
//	fmt.Println(rep.Summary()) // vulnerabilities of the unprotected binary
//
//	res, _ := reinforce.HardenFaulterPatcher(bin, reinforce.FaulterPatcherOptions{
//		Good: c.Good, Bad: c.Bad,
//	})
//	fmt.Println(res.Summary()) // iterations, patched sites, overhead
package reinforce

import (
	"fmt"
	"strings"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
	"github.com/r2r/reinforce/internal/ir"
	"github.com/r2r/reinforce/internal/lift"
	"github.com/r2r/reinforce/internal/passes"
	"github.com/r2r/reinforce/internal/patch"
	"github.com/r2r/reinforce/internal/trace"
)

// Binary is a static ELF64 executable (parsed or under construction).
type Binary = elf.Binary

// Section is a loadable region of a Binary.
type Section = elf.Section

// Symbol is a named address in a Binary.
type Symbol = elf.Symbol

// Assemble builds a static binary from assembly source (see
// internal/asm for the dialect; examples/ and the case studies are the
// best reference).
func Assemble(source string) (*Binary, error) {
	return asm.Assemble(source, nil)
}

// ParseELF loads a binary image: either the section-header form
// (*Binary).Bytes writes, or a program-header-only executable, whose
// sections are rebuilt from its PT_LOAD segments.
func ParseELF(image []byte) (*Binary, error) {
	return elf.Load(image)
}

// RunResult is the outcome of executing a binary in the emulator.
type RunResult = emu.Result

// Run executes a binary on the emulator with the given stdin, returning
// its observable behaviour. The error is non-nil if the program crashed
// (memory fault, invalid instruction, runaway execution).
func Run(bin *Binary, stdin []byte) (RunResult, error) {
	return emu.New(bin, emu.Config{Stdin: stdin}).Run()
}

// Trace is a recorded instruction-level execution trace.
type Trace = trace.Trace

// CaptureTrace records the dynamic instruction trace of a run.
func CaptureTrace(bin *Binary, stdin []byte) *Trace {
	return trace.Capture(bin, stdin, 0)
}

// Fault model selection.
type Model = fault.Model

// Fault models: the paper's two (§IV-B1) plus the extended catalog
// (register bit flip, multi-instruction skip window, transient data
// flip). A new model is one fault.ModelSpec plus one row of the fault
// package's catalog table.
const (
	ModelSkip      = fault.ModelSkip
	ModelBitFlip   = fault.ModelBitFlip
	ModelRegFlip   = fault.ModelRegFlip
	ModelMultiSkip = fault.ModelMultiSkip
	ModelDataFlip  = fault.ModelDataFlip
)

// ParseModels resolves a comma-separated fault-model list (canonical
// names or CLI aliases; "both" = the paper's pair, "all" = every
// catalog model).
func ParseModels(spec string) ([]Model, error) {
	return fault.ParseModels(spec)
}

// FaultReport is a completed fault-injection campaign.
type FaultReport = fault.Report

// FaultScan runs a fault-injection campaign against the binary: good
// and bad are the two oracle inputs (accepted and rejected); the
// campaign injects faults into the bad-input run under each model and
// reports which ones flip the program into good-input behaviour.
func FaultScan(bin *Binary, good, bad []byte, models ...Model) (*FaultReport, error) {
	return fault.Run(fault.Campaign{
		Binary: bin,
		Good:   good,
		Bad:    bad,
		Models: models,
	})
}

// Order2Report is the outcome of an order-2 multi-fault campaign: the
// order-1 sweep plus the simulated fault pairs pruned from it.
type Order2Report = campaign.Order2Report

// FaultScanOrder2 runs an order-2 multi-fault campaign: the order-1
// sweep first, then deterministic fault *pairs* (both components
// individually detected or ignored, the second striking strictly later
// in the trace), capped at maxPairs (0 = the default budget). This is
// the attack that defeats single-fault-hardened binaries.
func FaultScanOrder2(bin *Binary, good, bad []byte, maxPairs int, models ...Model) (*Order2Report, error) {
	return campaign.RunOrder2(fault.Campaign{
		Binary: bin,
		Good:   good,
		Bad:    bad,
		Models: models,
	}, campaign.Options{MaxPairs: maxPairs})
}

// CampaignStore is the content-addressed campaign result cache:
// results are keyed by binary digest + campaign options, so repeated
// scans and hardening runs over unchanged binaries replay from the
// store instead of re-simulating (`r2r ... -cache-dir`).
type CampaignStore = campaign.Store

// NewCampaignStore opens (creating if needed) a store backed by dir;
// an empty dir means in-memory only. Pass it via
// FaulterPatcherOptions.Store to make hardening runs incremental
// across processes.
func NewCampaignStore(dir string) (*CampaignStore, error) {
	return campaign.NewStore(dir)
}

// FaulterPatcherOptions configure the iterative hardening loop.
type FaulterPatcherOptions = patch.Options

// FaulterPatcherResult is the outcome of the iterative hardening loop.
type FaulterPatcherResult = patch.Result

// HardenFaulterPatcher runs the paper's Faulter+Patcher pipeline
// (§IV-B): fault simulation drives targeted insertion of the Table I–III
// local protection patterns until a fixed point.
func HardenFaulterPatcher(bin *Binary, opt FaulterPatcherOptions) (*FaulterPatcherResult, error) {
	return patch.Harden(bin, opt)
}

// HybridOptions configure the full-translation pipeline.
type HybridOptions = harden.HybridOptions

// HybridResult is the outcome of the full-translation pipeline.
type HybridResult = harden.HybridResult

// HardenHybrid runs the paper's Hybrid compiler–binary pipeline (§IV-C):
// lift to IR, apply conditional branch hardening (§V-B), lower back.
func HardenHybrid(bin *Binary, opt HybridOptions) (*HybridResult, error) {
	return harden.Hybrid(bin, opt)
}

// DuplicationResult is the outcome of the blanket-duplication baseline.
type DuplicationResult = patch.BlanketResult

// DuplicationBaseline applies the Table-I-style protection to every
// instruction (the paper's ">= 300% overhead" comparison point).
func DuplicationBaseline(bin *Binary) (*DuplicationResult, error) {
	return patch.HardenAll(bin, patch.StyleFallthrough)
}

// Evaluation compares fault campaigns before and after hardening.
type Evaluation = harden.Evaluation

// Evaluate runs identical campaigns against the original and hardened
// binaries (how §V-C's tables are produced).
func Evaluate(original, hardened *Binary, good, bad []byte, models ...Model) (*Evaluation, error) {
	return harden.Evaluate(original, hardened, good, bad, models, 0)
}

// Case is a runnable case study with its behavioural oracle.
type Case = cases.Case

// Pincheck returns the paper's pin-checker case study.
func Pincheck() *Case { return cases.Pincheck() }

// Bootloader returns the paper's secure-bootloader case study.
func Bootloader() *Case { return cases.Bootloader() }

// Disassemble renders the binary's text section as a symbolized
// assembly listing.
func Disassemble(bin *Binary) (string, error) {
	prog, err := bir.Disassemble(bin)
	if err != nil {
		return "", err
	}
	return prog.Listing(), nil
}

// LiftIR lifts the binary and renders its compiler IR (useful for
// inspecting what the Hybrid pipeline transforms).
func LiftIR(bin *Binary) (string, error) {
	lr, err := lift.Lift(bin)
	if err != nil {
		return "", err
	}
	return lr.Module.String(), nil
}

// Module is the compiler IR module type (exposed for inspection).
type Module = ir.Module

// CFGDot lifts the binary and renders the entry function's control-flow
// graph in Graphviz dot syntax. With hardened=true the conditional
// branch hardening pass runs first, reproducing the structure of the
// paper's Figure 5 (validation chains in green, fault responses in
// blue); with false it is Figure 4's plain CFG.
func CFGDot(bin *Binary, hardened bool) (string, error) {
	lr, err := lift.Lift(bin)
	if err != nil {
		return "", err
	}
	if err := passes.Run(lr.Module, passes.CleanupPipeline()...); err != nil {
		return "", err
	}
	if hardened {
		if err := passes.Run(lr.Module, passes.BranchHarden{}); err != nil {
			return "", err
		}
	}
	f := lr.Module.Func(lr.Module.EntryFunc)
	if f == nil {
		return "", fmt.Errorf("reinforce: entry function missing")
	}
	return ir.DotCFG(f), nil
}

// DecodeInst decodes a single instruction at the start of code.
func DecodeInst(code []byte, addr uint64) (string, int, error) {
	in, err := decode.Decode(code, addr)
	if err != nil {
		return "", 0, err
	}
	return in.String(), in.EncLen, nil
}

// Version identifies the library.
const Version = "1.0.0"

// Describe returns a one-paragraph description of a binary: entry,
// sections, code size — handy for CLI/status output.
func Describe(bin *Binary) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "entry %#x, %d sections, %d bytes of code\n", bin.Entry, len(bin.Sections), bin.CodeSize())
	for _, s := range bin.Sections {
		perms := ""
		if s.Flags&elf.FlagRead != 0 {
			perms += "r"
		}
		if s.Flags&elf.FlagWrite != 0 {
			perms += "w"
		}
		if s.Flags&elf.FlagExec != 0 {
			perms += "x"
		}
		fmt.Fprintf(&sb, "  %-10s %#10x  %6d bytes  %s\n", s.Name, s.Addr, s.Size(), perms)
	}
	return sb.String()
}
