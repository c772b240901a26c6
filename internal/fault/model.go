package fault

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/isa"
	"github.com/r2r/reinforce/internal/trace"
)

// Model identifies a fault model of the catalog. The two models of the
// paper (instruction skip, single bit flip) and three beyond-the-paper
// models (register bit flip, multi-instruction skip, transient data
// flip) are built in; a new model is one ModelSpec plus one catalog
// row, without touching the campaign engine.
type Model uint8

// Built-in fault models. ModelSkip and ModelBitFlip are the paper's
// (§IV-B1, §V-C); the rest follow ARMORY's catalog argument — exhaustive
// simulation pays off over many fault models, not two.
const (
	ModelSkip      Model = iota // skip one instruction
	ModelBitFlip                // flip one bit of one instruction's encoding
	ModelRegFlip                // flip one bit of a live register at a trace point
	ModelMultiSkip              // skip a window of 2-4 consecutive instructions
	ModelDataFlip               // flip one bit of a memory operand's cell at access time
)

// String names the fault model by its canonical catalog name.
func (m Model) String() string {
	if int(m) < len(catalog) {
		return catalog[m].name
	}
	return "?"
}

// MarshalJSON renders the model as its canonical name, so exports never
// hand-roll the stringification.
func (m Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON accepts a canonical model name or CLI alias.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseModel(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// EnumContext hands a ModelSpec everything fault enumeration may need:
// the campaign configuration, the bad-input reference trace, and the
// load-time instruction at each traced address.
type EnumContext struct {
	Campaign *Campaign
	Trace    *trace.Trace

	// prog is the session's whole-image program (nil when it has none),
	// base its entry snapshot. decoded caches what Inst decoded from
	// base, nil where the bytes do not decode.
	prog    *emu.Program
	base    *emu.Snapshot
	decoded map[uint64]*isa.Inst
	seen    map[uint64]map[int]bool
}

// Inst returns the load-time instruction at a traced address: the
// session program's, or one decoded from the entry snapshot's bytes for
// an address off the program's linear sweep (or a session without a
// program). Both describe load-time code, also when the reference run
// rewrote its own. Nil where the bytes do not decode; the spec skips
// the site. The instruction is shared and must not be mutated.
func (ctx *EnumContext) Inst(addr uint64) *isa.Inst {
	if ctx.prog != nil {
		if in := ctx.prog.Lookup(addr); in != nil {
			return in
		}
	}
	in, done := ctx.decoded[addr]
	if !done {
		in = decodeAt(ctx.base, addr)
		ctx.decoded[addr] = in
	}
	return in
}

// decodeAt decodes the instruction at addr from a snapshot's memory,
// nil when its bytes do not fetch or decode.
func decodeAt(s *emu.Snapshot, addr uint64) *isa.Inst {
	m := s.Resume(emu.Config{})
	defer m.Release()
	var buf [decode.MaxInstLen]byte
	n, err := m.Mem.Fetch(addr, buf[:])
	if err != nil {
		return nil
	}
	in, err := decode.Decode(buf[:n], addr)
	if err != nil {
		return nil
	}
	return &in
}

// Mark implements the campaign's DedupSites policy for a model: it
// reports whether the (addr, key) fault site is fresh. With DedupSites
// off it always reports true (the paper faults every dynamic trace
// offset). key disambiguates fault variants at one address — bit index,
// window length, register×bit — exactly as the model defines it.
func (ctx *EnumContext) Mark(addr uint64, key int) bool {
	if !ctx.Campaign.DedupSites {
		return true
	}
	keys, ok := ctx.seen[addr]
	if !ok {
		keys = make(map[int]bool)
		ctx.seen[addr] = keys
	}
	if keys[key] {
		return false
	}
	keys[key] = true
	return true
}

// ModelSpec is a pluggable fault model: it enumerates the faults it
// induces on a reference trace and installs the emulator hooks that
// realize one of them in a forked run.
//
// Contract: Enumerate must be deterministic (campaign reports are
// bit-identical across workers and shards because the fault list is),
// and Hooks must key any step-indexed behaviour off the machine's
// absolute step counter, so a run resumed from a mid-trace snapshot
// behaves exactly like a cold run from _start.
type ModelSpec interface {
	// Enumerate emits every fault of this model for the reference
	// trace, in deterministic order.
	Enumerate(ctx *EnumContext, emit func(Fault))

	// Hooks installs the emulator hooks realizing fault f into cfg
	// through Config.AddFetchHookWindow/AddStepHookWindow, so several
	// faults compose onto one run (order-2 and order-3 campaigns).
	// The window a hook declares is the fault's effect horizon: a
	// machine that has completed the window's end steps behaves
	// identically from then on whether or not the hooks are still
	// installed. The multi-fault engine pauses and forks a first
	// fault's run there (see ExecuteSequences), and the continuation
	// memo digests runs only past it, so a window that ends too early
	// is a soundness bug, caught by the tree-vs-cold identity tests.
	Hooks(f Fault, cfg *emu.Config)
}

// catalog holds each fault model's spec, canonical name (reports and
// exports) and CLI aliases, indexed by Model. The row order is the id
// order every listing follows; aliases are listed as CatalogNames
// shows them. A new model is one ModelSpec plus one row here.
var catalog = [...]struct {
	spec    ModelSpec
	name    string
	aliases []string
}{
	ModelSkip:      {SkipSpec{}, "instruction-skip", []string{"skip"}},
	ModelBitFlip:   {BitFlipSpec{}, "single-bit-flip", []string{"bit-flip", "bitflip"}},
	ModelRegFlip:   {RegFlipSpec{}, "register-bit-flip", []string{"reg-flip", "regflip"}},
	ModelMultiSkip: {MultiSkipSpec{MinWindow: 2, MaxWindow: 4}, "multi-instruction-skip", []string{"multi-skip", "multiskip"}},
	ModelDataFlip:  {DataFlipSpec{}, "data-bit-flip", []string{"data-flip", "dataflip"}},
}

// SpecOf returns the spec of a catalog model, or nil.
func SpecOf(m Model) ModelSpec {
	if int(m) < len(catalog) {
		return catalog[m].spec
	}
	return nil
}

// RegisteredModels returns every catalog model in ascending id order.
func RegisteredModels() []Model {
	out := make([]Model, len(catalog))
	for i := range out {
		out[i] = Model(i)
	}
	return out
}

// CatalogNames renders every catalog model as
// "canonical-name (alias, ...)" in ascending id order — the list error
// messages and help text show users.
func CatalogNames() []string {
	out := make([]string, len(catalog))
	for i, row := range catalog {
		out[i] = row.name + " (" + strings.Join(row.aliases, ", ") + ")"
	}
	return out
}

// ParseModel resolves a canonical model name or alias. Unknown names
// fail with the catalog spelled out, so a typo on the command line is
// self-correcting.
func ParseModel(name string) (Model, error) {
	trimmed := strings.TrimSpace(name)
	for i, row := range catalog {
		if trimmed == row.name || slices.Contains(row.aliases, trimmed) {
			return Model(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault model %q (registered: %s; plus the keywords both, all)",
		name, strings.Join(CatalogNames(), ", "))
}

// ParseModels resolves a comma-separated model list. The keywords
// "both" (the paper's skip + bitflip pair) and "all" (every catalog
// model) expand in place; an empty string means "both".
func ParseModels(spec string) ([]Model, error) {
	if strings.TrimSpace(spec) == "" {
		spec = "both"
	}
	var out []Model
	seen := map[Model]bool{}
	add := func(m Model) {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(part) {
		case "both":
			add(ModelSkip)
			add(ModelBitFlip)
		case "all":
			for _, m := range RegisteredModels() {
				add(m)
			}
		default:
			m, err := ParseModel(part)
			if err != nil {
				return nil, err
			}
			add(m)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Instruction skip (paper §IV-B1).
// ---------------------------------------------------------------------

// SkipSpec is the paper's instruction-skip model: the instruction at
// one dynamic trace offset is fetched and decoded but not executed.
type SkipSpec struct{}

// Enumerate implements ModelSpec: one fault per trace offset.
func (SkipSpec) Enumerate(ctx *EnumContext, emit func(Fault)) {
	for i, e := range ctx.Trace.Entries {
		if ctx.Mark(e.Addr, 0) {
			emit(Fault{
				Model: ModelSkip, TraceIndex: i,
				Addr: e.Addr, Op: e.Op, Cond: e.Cond,
			})
		}
	}
}

// Hooks implements ModelSpec. The skip acts during step TraceIndex, so
// the hook's window is that one step.
func (SkipSpec) Hooks(f Fault, cfg *emu.Config) {
	ti := uint64(f.TraceIndex)
	cfg.AddStepHookWindow(func(m *emu.Machine, in *isa.Inst) emu.StepAction {
		// Steps is incremented before the hook runs, so the currently
		// executing instruction has index Steps-1.
		if m.Steps-1 == ti {
			return emu.ActSkip
		}
		return emu.ActContinue
	}, ti, ti+1)
}

// ---------------------------------------------------------------------
// Single bit flip (paper §IV-B1).
// ---------------------------------------------------------------------

// BitFlipSpec is the paper's single-bit-flip model: one bit of one
// instruction's encoding is flipped in emulator memory just before the
// fetch at one trace offset (restored after one fetch when the campaign
// asks for transient faults).
type BitFlipSpec struct{}

// Enumerate implements ModelSpec: every bit of every traced
// instruction's encoding.
func (BitFlipSpec) Enumerate(ctx *EnumContext, emit func(Fault)) {
	for i, e := range ctx.Trace.Entries {
		for bit := 0; bit < e.Len*8; bit++ {
			if ctx.Mark(e.Addr, bit) {
				emit(Fault{
					Model: ModelBitFlip, TraceIndex: i,
					Addr: e.Addr, Op: e.Op, Cond: e.Cond,
					Bit: bit, Transient: ctx.Campaign.Transient,
				})
			}
		}
	}
}

// Hooks implements ModelSpec. The flip lands at the fetch of step
// TraceIndex; a transient fault restores the bit one fetch later, so
// its window spans step TraceIndex+1 too. (A persistent flip stays in
// memory, but that is machine state a snapshot carries — the *hook* is
// done.)
func (BitFlipSpec) Hooks(f Fault, cfg *emu.Config) {
	ti := uint64(f.TraceIndex)
	flipAddr := f.Addr + uint64(f.Bit/8)
	flipBit := uint(f.Bit % 8)
	transient := f.Transient
	end := ti + 1
	if transient {
		end = ti + 2
	}
	cfg.AddFetchHookWindow(func(m *emu.Machine) {
		// The hook runs before Steps is incremented, so the
		// instruction about to be fetched has index Steps.
		switch m.Steps {
		case ti:
			_ = m.Mem.FlipBit(flipAddr, flipBit)
		case ti + 1:
			if transient {
				_ = m.Mem.FlipBit(flipAddr, flipBit)
			}
		}
	}, ti, end)
}

// ---------------------------------------------------------------------
// Register bit flip (beyond the paper; cf. ARMORY's register faults).
// ---------------------------------------------------------------------

// RegFlipSpec flips one bit of one live register immediately before the
// instruction at a trace offset executes. "Live" means the instruction
// actually reads the register — as an operand, as a memory base/index,
// or implicitly (syscall argument registers, the stack pointer of
// push/pop/call/ret) — so every enumerated fault can change behaviour.
type RegFlipSpec struct{}

// Enumerate implements ModelSpec: each register the traced instruction
// reads × each bit of the width it is read at.
func (RegFlipSpec) Enumerate(ctx *EnumContext, emit func(Fault)) {
	for i, e := range ctx.Trace.Entries {
		in := ctx.Inst(e.Addr)
		if in == nil {
			continue
		}
		for _, t := range readRegs(in) {
			for bit := 0; bit < t.bits; bit++ {
				if ctx.Mark(e.Addr, int(t.reg)*64+bit) {
					emit(Fault{
						Model: ModelRegFlip, TraceIndex: i,
						Addr: e.Addr, Op: e.Op, Cond: e.Cond,
						Reg: t.reg, Bit: bit,
					})
				}
			}
		}
	}
}

// Hooks implements ModelSpec: the register is flipped during step
// TraceIndex, the hook's one-step window.
func (RegFlipSpec) Hooks(f Fault, cfg *emu.Config) {
	ti := uint64(f.TraceIndex)
	reg, bit := f.Reg, uint(f.Bit)
	cfg.AddStepHookWindow(func(m *emu.Machine, in *isa.Inst) emu.StepAction {
		if m.Steps-1 == ti {
			m.FlipRegBit(reg, bit)
		}
		return emu.ActContinue
	}, ti, ti+1)
}

// regTarget is one faultable register of an instruction, with the
// number of low bits worth flipping (the width the instruction reads).
type regTarget struct {
	reg  isa.Reg
	bits int
}

// writeOnlyDst lists ops whose destination register is written without
// being read first — flipping it pre-execution would be a no-op.
var writeOnlyDst = map[isa.Op]bool{
	isa.MOV: true, isa.MOVZX: true, isa.MOVSX: true, isa.LEA: true,
	isa.SETCC: true, isa.POP: true,
}

// readRegs returns the registers an instruction reads, in hardware
// register order, each with its read width in bits. Address registers
// (memory base/index, the implicit stack pointer) always count all 64
// bits — a high-bit flip sends the access somewhere else entirely.
func readRegs(in *isa.Inst) []regTarget {
	bits := [isa.NumRegs]int{}
	note := func(r isa.Reg, b int) {
		if r.Valid() && b > bits[r] {
			bits[r] = b
		}
	}
	operand := func(op *isa.Operand, read bool) {
		switch op.Kind {
		case isa.KindReg:
			if read {
				note(op.Reg, int(op.Width)*8)
			}
		case isa.KindMem:
			note(op.Mem.Base, 64)
			note(op.Mem.Index, 64)
		}
	}
	operand(&in.Dst, !writeOnlyDst[in.Op])
	operand(&in.Src, true)
	switch in.Op {
	case isa.SYSCALL:
		// The emulated syscall surface (read/write/exit) dispatches on
		// RAX and consumes RDI/RSI/RDX.
		for _, r := range []isa.Reg{isa.RAX, isa.RDX, isa.RSI, isa.RDI} {
			note(r, 64)
		}
	case isa.PUSH, isa.POP, isa.CALL, isa.RET, isa.PUSHFQ, isa.POPFQ:
		note(isa.RSP, 64)
	}
	var out []regTarget
	for r := 0; r < isa.NumRegs; r++ {
		if bits[r] > 0 {
			out = append(out, regTarget{reg: isa.Reg(r), bits: bits[r]})
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Multi-instruction skip (beyond the paper; cf. Boespflug et al.).
// ---------------------------------------------------------------------

// MultiSkipSpec skips a window of consecutive instructions — the wide
// glitch that defeats naive duplication countermeasures (skipping an
// instruction and its duplicate together).
type MultiSkipSpec struct {
	MinWindow, MaxWindow int // window sizes enumerated, inclusive
}

// Enumerate implements ModelSpec: every trace offset × every window
// size that fits in the remaining trace.
func (s MultiSkipSpec) Enumerate(ctx *EnumContext, emit func(Fault)) {
	for i, e := range ctx.Trace.Entries {
		for w := s.MinWindow; w <= s.MaxWindow; w++ {
			if i+w > len(ctx.Trace.Entries) {
				break
			}
			if ctx.Mark(e.Addr, w) {
				emit(Fault{
					Model: ModelMultiSkip, TraceIndex: i,
					Addr: e.Addr, Op: e.Op, Cond: e.Cond,
					Window: w,
				})
			}
		}
	}
}

// Hooks implements ModelSpec. The glitch sustains through the whole
// skip window, the hook's window. It is counted in executed steps, so
// it stays contiguous even when a skipped instruction would have
// branched: the fall-through successors are skipped instead, exactly as
// a sustained glitch behaves on hardware.
func (MultiSkipSpec) Hooks(f Fault, cfg *emu.Config) {
	start := uint64(f.TraceIndex)
	end := start + uint64(f.Window)
	cfg.AddStepHookWindow(func(m *emu.Machine, in *isa.Inst) emu.StepAction {
		if s := m.Steps - 1; s >= start && s < end {
			return emu.ActSkip
		}
		return emu.ActContinue
	}, start, end)
}

// ---------------------------------------------------------------------
// Transient data flip (beyond the paper).
// ---------------------------------------------------------------------

// DataFlipSpec flips one bit of the memory cell a traced instruction's
// memory operand resolves to, immediately before the access — a glitch
// on the data bus rather than the instruction stream. The flip lands in
// the cell itself (persistently, like a disturbed DRAM row); "transient"
// refers to the one-shot injection, not a stuck-at fault.
//
// Only cells the instruction *reads* are fault sites: LEA computes an
// address without touching memory, and a pure store (mov [mem], x)
// overwrites the cell before the flipped value could ever be observed,
// so faulting either would only simulate guaranteed no-ops.
type DataFlipSpec struct{}

// dataFaultOperand returns the memory operand whose cell a data fault
// can perturb — the one the instruction reads — or nil when the
// instruction touches no memory or only writes it.
func dataFaultOperand(in *isa.Inst) *isa.Operand {
	if in.Op == isa.LEA {
		return nil
	}
	mem := in.MemOperand()
	if mem == nil {
		return nil
	}
	if mem == &in.Dst && writeOnlyDst[in.Op] {
		return nil
	}
	return mem
}

// Enumerate implements ModelSpec: each traced memory read × each bit
// of the accessed width.
func (DataFlipSpec) Enumerate(ctx *EnumContext, emit func(Fault)) {
	for i, e := range ctx.Trace.Entries {
		in := ctx.Inst(e.Addr)
		if in == nil {
			continue
		}
		mem := dataFaultOperand(in)
		if mem == nil {
			continue
		}
		for bit := 0; bit < int(mem.Width)*8; bit++ {
			if ctx.Mark(e.Addr, bit) {
				emit(Fault{
					Model: ModelDataFlip, TraceIndex: i,
					Addr: e.Addr, Op: e.Op, Cond: e.Cond,
					Bit: bit,
				})
			}
		}
	}
}

// Hooks implements ModelSpec. The cell is disturbed during step
// TraceIndex, the hook's window; whatever it changed is machine state
// from then on. The effective address is resolved in the faulted run's
// own state at injection time; if execution diverged (order-2 runs)
// and the instruction at the fault step has no memory operand, there
// is no access to disturb and the glitch fizzles.
func (DataFlipSpec) Hooks(f Fault, cfg *emu.Config) {
	ti := uint64(f.TraceIndex)
	byteOff := uint64(f.Bit / 8)
	bit := uint(f.Bit % 8)
	cfg.AddStepHookWindow(func(m *emu.Machine, in *isa.Inst) emu.StepAction {
		if m.Steps-1 == ti {
			if mem := dataFaultOperand(in); mem != nil {
				_ = m.Mem.FlipDataBit(m.OperandAddr(in, mem)+byteOff, bit)
			}
		}
		return emu.ActContinue
	}, ti, ti+1)
}
