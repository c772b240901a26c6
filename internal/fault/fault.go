// Package fault implements the paper's faulter (§IV-B1): simulation of
// hardware fault injection against a target binary under a pluggable
// catalog of fault models, with outcome classification against good/bad
// input oracles.
//
// The paper's two models (instruction skip, single bit flip) plus
// register bit-flip, multi-instruction skip, and transient data flip
// are built in; a new model is one ModelSpec plus one row of the
// catalog table (see model.go). Multi-fault campaigns inject
// deterministic pairs and triples of faults (see multi.go), the attack
// that defeats single-fault-hardened binaries.
//
// A fault is "successful" when the program, running on the *bad* input,
// produces the observable behaviour of the *good* input — e.g. a pin
// checker granting access without the correct pin. Crashes and otherwise
// divergent behaviour are ignored, exactly as in the paper. Faults that
// end in the injected fault handler (exit code 42) are classified as
// detected — the countermeasure worked.
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/isa"
	"github.com/r2r/reinforce/internal/trace"
)

// DetectedExitCode is the exit status of the injected faulthandler; runs
// ending with it count as detected faults.
const DetectedExitCode = 42

// Fault identifies one injection: a fault model applied at a dynamic
// trace offset, plus the model-specific coordinates (bit position,
// register, window length). The four word-sized fields come first and
// the five byte-sized ones last, so a Fault packs into 40 bytes on
// 64-bit platforms: every per-fault array of a campaign (fault lists,
// injections, pair and triple lists) is held at that size.
type Fault struct {
	TraceIndex int    // dynamic occurrence index in the bad-input trace
	Addr       uint64 // static address of the faulted instruction
	Bit        int    // bit offset: instruction encoding (bitflip), register (reg-flip), operand cell (data-flip)
	Window     int    // consecutive instructions skipped (multi-skip)

	Model     Model
	Op        isa.Op // mnemonic at that address (from the trace)
	Cond      isa.Cond
	Reg       isa.Reg // faulted register (reg-flip)
	Transient bool    // restore the flipped bit after one fetch (bitflip)
}

// String renders the fault for reports.
func (f Fault) String() string {
	var s string
	switch f.Model {
	case ModelSkip:
		s = fmt.Sprintf("skip @%d (%#x %s)", f.TraceIndex, f.Addr, f.Op)
	case ModelBitFlip:
		s = fmt.Sprintf("bitflip bit %d @%d (%#x %s)", f.Bit, f.TraceIndex, f.Addr, f.Op)
	case ModelRegFlip:
		s = fmt.Sprintf("regflip %s bit %d @%d (%#x %s)", f.Reg, f.Bit, f.TraceIndex, f.Addr, f.Op)
	case ModelMultiSkip:
		s = fmt.Sprintf("skip %d @%d..%d (%#x %s)", f.Window, f.TraceIndex, f.TraceIndex+f.Window-1, f.Addr, f.Op)
	case ModelDataFlip:
		s = fmt.Sprintf("dataflip bit %d @%d (%#x %s)", f.Bit, f.TraceIndex, f.Addr, f.Op)
	default:
		s = fmt.Sprintf("%s @%d (%#x %s)", f.Model, f.TraceIndex, f.Addr, f.Op)
	}
	if f.Transient {
		s += " transient"
	}
	return s
}

// Outcome classifies an injection run.
type Outcome uint8

// Outcomes.
const (
	OutcomeIgnored  Outcome = iota // behaved as bad input, or differently but harmlessly
	OutcomeSuccess                 // behaved as good input: a vulnerability
	OutcomeCrash                   // emulator fault / hang / bad syscall
	OutcomeDetected                // countermeasure fault handler fired
)

// String renders the outcome for reports and summaries.
func (o Outcome) String() string {
	switch o {
	case OutcomeIgnored:
		return "ignored"
	case OutcomeSuccess:
		return "SUCCESS"
	case OutcomeCrash:
		return "crash"
	case OutcomeDetected:
		return "detected"
	}
	return "?"
}

// MarshalJSON renders the outcome as its string form.
func (o Outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.String())
}

// UnmarshalJSON accepts the string forms emitted by MarshalJSON
// (case-insensitively, so "success" round-trips too).
func (o *Outcome) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch strings.ToLower(s) {
	case "ignored":
		*o = OutcomeIgnored
	case "success":
		*o = OutcomeSuccess
	case "crash":
		*o = OutcomeCrash
	case "detected":
		*o = OutcomeDetected
	default:
		return fmt.Errorf("fault: unknown outcome %q", s)
	}
	return nil
}

// Observable is the externally visible behaviour the attacker cares
// about: standard output plus exit status.
type Observable struct {
	Stdout   string
	ExitCode int
}

func observe(res emu.Result) Observable {
	return Observable{Stdout: string(res.Stdout), ExitCode: res.ExitCode}
}

// Injection is the result of one fault simulation.
type Injection struct {
	Fault   Fault
	Outcome Outcome
}

// Campaign configures a fault-injection sweep.
type Campaign struct {
	Binary *elf.Binary
	Good   []byte // input accepted by the program
	Bad    []byte // input rejected by the program
	Models []Model

	StepLimit uint64 // reference-run step budget (default emu.DefaultStepLimit)
	Workers   int    // parallel simulations (default GOMAXPROCS)

	// InjectionStepLimit bounds each faulted run. Zero means automatic:
	// eight times the bad-input reference run plus slack — a fault that
	// prolongs execution beyond that is a hang, and classifying it as a
	// crash quickly instead of grinding out the full reference budget
	// is what keeps large bit-flip campaigns tractable.
	InjectionStepLimit uint64

	// DedupSites fault each static (addr) or (addr,bit) pair once
	// instead of at every dynamic occurrence. Cuts loop-heavy campaign
	// cost; the paper faults every trace offset (default false).
	DedupSites bool

	// Transient restores flipped bits after one fetch (default:
	// persistent, as when patching emulator memory and resuming).
	Transient bool

	// MaxFaults caps the number of injections (0 = unlimited).
	MaxFaults int

	// SingleStep forces every simulation onto the emulator's per-step
	// interpreter instead of the predecoded micro-op fast path. The
	// two are bit-identical by contract; differential tests set this
	// to prove it at campaign level. Default off.
	SingleStep bool
}

// Report is the campaign outcome.
type Report struct {
	Trace      *trace.Trace
	GoodOracle Observable
	BadOracle  Observable
	Injections []Injection
}

// Errors returned by Run.
var (
	ErrOracle       = errors.New("fault: good and bad runs are indistinguishable")
	ErrBadRun       = errors.New("fault: reference run failed")
	ErrUnknownModel = errors.New("fault: unregistered fault model")
)

// Run executes the campaign: capture oracles and the bad-input trace
// once, then simulate every fault in parallel from copy-on-write
// snapshots of the reference run (see Session). Results are
// bit-identical regardless of worker count.
func Run(c Campaign) (*Report, error) {
	s, err := NewSession(c)
	if err != nil {
		return nil, err
	}
	injections, _ := s.ExecuteShard(0, 1, s.c.Workers, nil)
	return s.Report(injections), nil
}

// enumerate expands the campaign into individual faults by dispatching
// to each selected model's catalog spec. Each model enumerates with
// a fresh dedup scope, so multi-model fault lists concatenate exactly
// like independent single-model campaigns (the FilterModels guarantee).
// A counting pass sizes the list first, so the filling pass allocates
// it once instead of regrowing it (bit-flip lists run to tens of
// thousands of faults); both passes reset the dedup scope per model,
// so they emit the same faults. prog and base serve EnumContext.Inst.
func enumerate(c Campaign, badTrace *trace.Trace, prog *emu.Program, base *emu.Snapshot) ([]Fault, error) {
	specs := make([]ModelSpec, len(c.Models))
	for i, model := range c.Models {
		if specs[i] = SpecOf(model); specs[i] == nil {
			return nil, fmt.Errorf("%w: model %d", ErrUnknownModel, model)
		}
	}
	ctx := &EnumContext{Campaign: &c, Trace: badTrace, prog: prog, base: base, decoded: make(map[uint64]*isa.Inst)}
	pass := func(emit func(Fault)) {
		for _, spec := range specs {
			ctx.seen = make(map[uint64]map[int]bool)
			spec.Enumerate(ctx, emit)
		}
	}
	n := 0
	pass(func(Fault) { n++ })
	out := make([]Fault, 0, n)
	pass(func(f Fault) { out = append(out, f) })
	return out, nil
}

// classify maps a finished injection run to its outcome against the
// good-input oracle.
func classify(res emu.Result, err error, good Observable) Outcome {
	if err != nil || !res.Exited {
		return OutcomeCrash
	}
	if res.ExitCode == DetectedExitCode || bytes.Contains(res.Stderr, []byte("FAULT")) {
		return OutcomeDetected
	}
	if observe(res) == good {
		return OutcomeSuccess
	}
	return OutcomeIgnored
}

// FilterModels returns a view of the report restricted to the given
// fault models, preserving campaign order. Because campaigns enumerate
// each model's faults independently, the filtered view is bit-identical
// to a campaign run with only those models (as long as MaxFaults did
// not truncate the original). The trace and oracles are shared, not
// copied.
func (r *Report) FilterModels(models ...Model) *Report {
	keep := make(map[Model]bool, len(models))
	for _, m := range models {
		keep[m] = true
	}
	out := &Report{
		Trace:      r.Trace,
		GoodOracle: r.GoodOracle,
		BadOracle:  r.BadOracle,
	}
	for _, inj := range r.Injections {
		if keep[inj.Fault.Model] {
			out.Injections = append(out.Injections, inj)
		}
	}
	return out
}

// Successful returns the injections that constitute vulnerabilities.
func (r *Report) Successful() []Injection {
	var out []Injection
	for _, inj := range r.Injections {
		if inj.Outcome == OutcomeSuccess {
			out = append(out, inj)
		}
	}
	return out
}

// Count returns how many injections had the given outcome.
func (r *Report) Count(o Outcome) int {
	n := 0
	for _, inj := range r.Injections {
		if inj.Outcome == o {
			n++
		}
	}
	return n
}

// Site aggregates successful faults by static instruction address.
type Site struct {
	Addr     uint64
	Op       isa.Op
	Cond     isa.Cond
	Mnemonic string
	Count    int // successful injections at this address
}

// VulnerableSites groups the successful injections by address, sorted
// by address. This is the patcher's work list.
func (r *Report) VulnerableSites() []Site {
	byAddr := make(map[uint64]*Site)
	for _, inj := range r.Injections {
		if inj.Outcome != OutcomeSuccess {
			continue
		}
		s, ok := byAddr[inj.Fault.Addr]
		if !ok {
			in := isa.Inst{Op: inj.Fault.Op, Cond: inj.Fault.Cond}
			s = &Site{
				Addr:     inj.Fault.Addr,
				Op:       inj.Fault.Op,
				Cond:     inj.Fault.Cond,
				Mnemonic: in.Mnemonic(),
			}
			byAddr[inj.Fault.Addr] = s
		}
		s.Count++
	}
	out := make([]Site, 0, len(byAddr))
	for _, s := range byAddr {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// VulnClass is the coarse mnemonic clustering used by the paper's claim
// that all vulnerabilities come from the conditional-jump cluster
// (mov/cmp/jcc and the instructions feeding them).
type VulnClass string

// Vulnerability classes.
const (
	ClassMov    VulnClass = "mov"
	ClassCmp    VulnClass = "cmp"
	ClassBranch VulnClass = "branch"
	ClassOther  VulnClass = "other"
)

// Classify maps an op to its vulnerability class.
func Classify(op isa.Op) VulnClass {
	switch op {
	case isa.MOV, isa.MOVZX, isa.MOVSX, isa.LEA:
		return ClassMov
	case isa.CMP, isa.TEST:
		return ClassCmp
	case isa.JCC, isa.JMP:
		return ClassBranch
	default:
		return ClassOther
	}
}

// ClassCounts tallies successful-fault sites by class.
func (r *Report) ClassCounts() map[VulnClass]int {
	out := make(map[VulnClass]int)
	for _, s := range r.VulnerableSites() {
		out[Classify(s.Op)]++
	}
	return out
}

// Summary renders campaign statistics.
func (r *Report) Summary() string {
	return fmt.Sprintf("injections=%d success=%d detected=%d crash=%d ignored=%d sites=%d",
		len(r.Injections), r.Count(OutcomeSuccess), r.Count(OutcomeDetected),
		r.Count(OutcomeCrash), r.Count(OutcomeIgnored), len(r.VulnerableSites()))
}
