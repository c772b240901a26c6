package fault

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/isa"
	"github.com/r2r/reinforce/internal/trace"
)

// oneBitPin is a checker whose good and bad inputs differ in exactly
// one bit ('B'=0x42 vs 'C'=0x43), so a single register or data bit flip
// can turn the bad run into the good one — the success witness for the
// reg-flip and data-flip models.
const oneBitPin = `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 1
	syscall
	movzx rax, byte ptr [rip+buf]
	cmp rax, 66
	jne deny
grant:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+ok]
	mov rdx, 8
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
deny:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+no]
	mov rdx, 7
	syscall
	mov rax, 60
	mov rdi, 1
	syscall
.rodata
ok:  .ascii "GRANTED\n"
no:  .ascii "DENIED\n"
.bss
buf: .zero 1
`

func buildOneBit(t *testing.T) *elf.Binary {
	t.Helper()
	bin, err := asm.Assemble(oneBitPin, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// legacyEnumerate is the pre-refactor closed-enum fault enumeration,
// kept verbatim as the golden reference: the pluggable specs must
// reproduce the paper models' fault lists bit for bit, so pre-refactor
// skip/bitflip reports stay byte-identical.
func legacyEnumerate(c Campaign, badTrace *trace.Trace) []Fault {
	var out []Fault
	for _, model := range c.Models {
		seen := make(map[uint64]map[int]bool)
		mark := func(addr uint64, bit int) bool {
			if !c.DedupSites {
				return true
			}
			bits, ok := seen[addr]
			if !ok {
				bits = make(map[int]bool)
				seen[addr] = bits
			}
			if bits[bit] {
				return false
			}
			bits[bit] = true
			return true
		}
		for i, e := range badTrace.Entries {
			switch model {
			case ModelSkip:
				if mark(e.Addr, 0) {
					out = append(out, Fault{
						Model: ModelSkip, TraceIndex: i,
						Addr: e.Addr, Op: e.Op, Cond: e.Cond,
					})
				}
			case ModelBitFlip:
				for bit := 0; bit < e.Len*8; bit++ {
					if mark(e.Addr, bit) {
						out = append(out, Fault{
							Model: ModelBitFlip, TraceIndex: i,
							Addr: e.Addr, Op: e.Op, Cond: e.Cond,
							Bit: bit, Transient: c.Transient,
						})
					}
				}
			}
		}
	}
	return out
}

// TestSpecEnumerationMatchesLegacy: the refactor's ground truth — the
// spec-driven enumeration of the paper's two models is bit-identical to
// the pre-refactor closed-enum code, under every option that shapes the
// fault list.
func TestSpecEnumerationMatchesLegacy(t *testing.T) {
	bin := buildMini(t)
	configs := []Campaign{
		{Models: []Model{ModelSkip, ModelBitFlip}},
		{Models: []Model{ModelBitFlip}, Transient: true},
		{Models: []Model{ModelSkip, ModelBitFlip}, DedupSites: true},
	}
	for _, c := range configs {
		c.Binary, c.Good, c.Bad = bin, goodPin, badPin
		s, err := NewSession(c)
		if err != nil {
			t.Fatal(err)
		}
		want := legacyEnumerate(c, s.trace)
		if !reflect.DeepEqual(s.Faults(), want) {
			t.Errorf("campaign %+v: spec enumeration differs from legacy enumeration", c)
		}
	}
}

func TestParseModels(t *testing.T) {
	cases := []struct {
		in   string
		want []Model
	}{
		{"skip", []Model{ModelSkip}},
		{"bitflip", []Model{ModelBitFlip}},
		{"", []Model{ModelSkip, ModelBitFlip}},
		{"both", []Model{ModelSkip, ModelBitFlip}},
		{"reg-flip,multi-skip,data-flip", []Model{ModelRegFlip, ModelMultiSkip, ModelDataFlip}},
		{"instruction-skip, single-bit-flip", []Model{ModelSkip, ModelBitFlip}},
		{"all", []Model{ModelSkip, ModelBitFlip, ModelRegFlip, ModelMultiSkip, ModelDataFlip}},
		{"skip,both", []Model{ModelSkip, ModelBitFlip}}, // dedup
	}
	for _, tc := range cases {
		got, err := ParseModels(tc.in)
		if err != nil {
			t.Errorf("ParseModels(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseModels(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseModels("skip,warp-core-breach"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestParseModelErrorListsCatalog: unknown names must fail with the
// registered catalog spelled out, not opaquely.
func TestParseModelErrorListsCatalog(t *testing.T) {
	_, err := ParseModel("warp-core-breach")
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	msg := err.Error()
	for _, want := range []string{"warp-core-breach", "registered:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	for _, m := range RegisteredModels() {
		if !strings.Contains(msg, m.String()) {
			t.Errorf("error %q does not list %s", msg, m)
		}
	}
}

// TestCatalogIntegrity: no name or alias of the fault-model table is in
// two rows, ParseModel of each resolves to its own row, and each row's
// spec enumerates faults of that row's model.
func TestCatalogIntegrity(t *testing.T) {
	bin := buildOneBit(t)
	owner := map[string]int{}
	for i, row := range catalog {
		m := Model(i)
		for _, name := range append([]string{row.name}, row.aliases...) {
			if j, dup := owner[name]; dup {
				t.Errorf("name %q is in rows %d and %d", name, j, i)
			}
			owner[name] = i
			if got, err := ParseModel(name); err != nil || got != m {
				t.Errorf("ParseModel(%q) = %v, %v; want %v", name, got, err, m)
			}
		}
		s, err := NewSession(Campaign{Binary: bin, Good: []byte("B"), Bad: []byte("C"), Models: []Model{m}})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Faults()) == 0 {
			t.Errorf("%v enumerates no faults", m)
		}
		for _, f := range s.Faults() {
			if f.Model != m {
				t.Fatalf("%v's spec emits a %v fault", m, f.Model)
			}
		}
	}
}

// TestCatalogNames: canonical names first, aliases in parentheses, in
// id order.
func TestCatalogNames(t *testing.T) {
	names := CatalogNames()
	if len(names) != len(RegisteredModels()) {
		t.Fatalf("%d catalog entries for %d models", len(names), len(RegisteredModels()))
	}
	if !strings.HasPrefix(names[0], "instruction-skip") || !strings.Contains(names[0], "skip") {
		t.Errorf("first entry %q: want instruction-skip with its alias", names[0])
	}
	for _, n := range names {
		if strings.HasPrefix(n, "(") {
			t.Errorf("entry %q starts with an alias group", n)
		}
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	for _, m := range RegisteredModels() {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		want := `"` + m.String() + `"`
		if string(data) != want {
			t.Errorf("model %d marshals to %s, want %s", m, data, want)
		}
		var back Model
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Errorf("model %v round-tripped to %v", m, back)
		}
	}
	var bad Model
	if err := json.Unmarshal([]byte(`"no-such-model"`), &bad); err == nil {
		t.Error("unknown model name unmarshalled")
	}
}

func TestOutcomeJSONRoundTrip(t *testing.T) {
	for _, o := range []Outcome{OutcomeIgnored, OutcomeSuccess, OutcomeCrash, OutcomeDetected} {
		data, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		var back Outcome
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("outcome %v: %v", o, err)
		}
		if back != o {
			t.Errorf("outcome %v round-tripped to %v", o, back)
		}
	}
}

// TestFaultStringIncludesTransient: transient and persistent bit flips
// must not render identically in reports.
func TestFaultStringIncludesTransient(t *testing.T) {
	f := Fault{Model: ModelBitFlip, TraceIndex: 3, Addr: 0x401000, Op: isa.CMP, Bit: 5}
	persistent := f.String()
	f.Transient = true
	transient := f.String()
	if persistent == transient {
		t.Errorf("transient flag invisible: both render as %q", persistent)
	}
	if !strings.Contains(transient, "transient") {
		t.Errorf("transient fault %q does not say so", transient)
	}
}

func TestFaultStringPerModel(t *testing.T) {
	faults := []Fault{
		{Model: ModelSkip, TraceIndex: 1, Addr: 0x401000, Op: isa.MOV},
		{Model: ModelBitFlip, TraceIndex: 1, Addr: 0x401000, Op: isa.MOV, Bit: 9},
		{Model: ModelRegFlip, TraceIndex: 1, Addr: 0x401000, Op: isa.MOV, Reg: isa.RBX, Bit: 7},
		{Model: ModelMultiSkip, TraceIndex: 1, Addr: 0x401000, Op: isa.MOV, Window: 3},
		{Model: ModelDataFlip, TraceIndex: 1, Addr: 0x401000, Op: isa.MOV, Bit: 2},
	}
	seen := map[string]bool{}
	for _, f := range faults {
		s := f.String()
		if s == "" || strings.Contains(s, "?") {
			t.Errorf("fault %+v renders as %q", f, s)
		}
		if seen[s] {
			t.Errorf("duplicate rendering %q", s)
		}
		seen[s] = true
	}
	if s := faults[2].String(); !strings.Contains(s, "rbx") {
		t.Errorf("regflip fault %q does not name the register", s)
	}
}

// TestUnknownModelRejected: campaigns over unregistered models fail
// loudly instead of silently enumerating nothing.
func TestUnknownModelRejected(t *testing.T) {
	_, err := Run(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{Model(250)},
	})
	if err == nil {
		t.Fatal("campaign over unregistered model succeeded")
	}
}

// TestRegFlipFindsSingleBitVuln: flipping the low bit of rax right
// before the cmp turns the bad pin into the good one.
func TestRegFlipFindsSingleBitVuln(t *testing.T) {
	rep, err := Run(Campaign{
		Binary: buildOneBit(t), Good: []byte("B"), Bad: []byte("C"),
		Models: []Model{ModelRegFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, inj := range rep.Successful() {
		if inj.Fault.Op == isa.CMP && inj.Fault.Reg == isa.RAX && inj.Fault.Bit == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("rax bit-0 flip at cmp not among successes: %v", rep.Successful())
	}
}

// offSweepPin jumps into the immediate of a swept mov eax, imm32
// (B8 48 83 FF 00), whose bytes hold the check it executes: cmp rdi, 0.
// The whole-image program's linear sweep decodes the mov, so the cmp
// is off the sweep. rdi is the input byte minus '1'.
const offSweepPin = `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 1
	syscall
	mov rdi, [rip+buf]
	sub rdi, 0x31
	.byte 0xEB, 0x01
	.byte 0xB8, 0x48, 0x83, 0xFF, 0x00
	jne deny
	mov rax, 60
	mov rdi, 0
	syscall
deny:
	mov rax, 60
	mov rdi, 1
	syscall
.bss
buf: .zero 8
`

// TestRegFlipOffSweepInst: an instruction the bad-input trace executes
// off the program's linear sweep gets the register faults a decode of
// the entry image's bytes gives, and each simulates like a cold run.
func TestRegFlipOffSweepInst(t *testing.T) {
	bin := mustAssemble(t, offSweepPin)
	s, err := NewSession(Campaign{
		Binary: bin, Good: []byte("1"), Bad: []byte("2"),
		Models: []Model{ModelRegFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	var addr uint64
	for _, e := range s.trace.Entries {
		if s.prog.Lookup(e.Addr) == nil {
			if addr != 0 && addr != e.Addr {
				t.Fatalf("off-sweep instructions at %#x and %#x, want one", addr, e.Addr)
			}
			addr = e.Addr
		}
	}
	text := bin.Text()
	in, err := decode.Decode(text.Data[addr-text.Addr:], addr)
	if addr == 0 || err != nil || in.Op != isa.CMP {
		t.Fatalf("off-sweep instruction at %#x decodes to %v, %v; want the hidden cmp", addr, in, err)
	}
	var want, got []Fault
	for i, e := range s.trace.Entries {
		if e.Addr != addr {
			continue
		}
		for _, r := range readRegs(&in) {
			for bit := 0; bit < r.bits; bit++ {
				want = append(want, Fault{
					Model: ModelRegFlip, TraceIndex: i,
					Addr: addr, Op: e.Op, Cond: e.Cond,
					Reg: r.reg, Bit: bit,
				})
			}
		}
	}
	for _, f := range s.Faults() {
		if f.Addr == addr {
			got = append(got, f)
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("faults at %#x:\n got %v\nwant %v", addr, got, want)
	}
	success := 0
	for _, f := range got {
		warm, cold := s.Simulate(f), s.SimulateCold(f)
		if warm != cold {
			t.Errorf("%v: snapshot path %v, cold path %v", f, warm, cold)
		}
		if warm == OutcomeSuccess {
			success++
		}
	}
	if success == 0 {
		t.Error("no off-sweep register fault succeeds; want rdi bit 0")
	}
}

// TestDataFlipFindsSingleBitVuln: flipping the low bit of the input
// cell as the movzx loads it turns the bad pin into the good one.
func TestDataFlipFindsSingleBitVuln(t *testing.T) {
	rep, err := Run(Campaign{
		Binary: buildOneBit(t), Good: []byte("B"), Bad: []byte("C"),
		Models: []Model{ModelDataFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, inj := range rep.Successful() {
		if inj.Fault.Op == isa.MOVZX && inj.Fault.Bit == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("buf bit-0 flip at movzx not among successes: %v", rep.Successful())
	}
}

// TestMultiSkipFindsWindowVuln: a window covering the jne (and the cmp
// before it) falls through into the grant path.
func TestMultiSkipFindsWindowVuln(t *testing.T) {
	rep, err := Run(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelMultiSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Successful()) == 0 {
		t.Fatal("multi-skip campaign found no vulnerabilities in unprotected pincheck")
	}
	for _, inj := range rep.Injections {
		if inj.Fault.Window < 2 || inj.Fault.Window > 4 {
			t.Errorf("enumerated window %d outside [2,4]", inj.Fault.Window)
		}
	}
}

// TestDataFlipSkipsLEA: lea computes an address without touching
// memory, so it must not be a data-fault site.
func TestDataFlipSkipsLEA(t *testing.T) {
	rep, err := Run(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelDataFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Injections) == 0 {
		t.Fatal("no data-flip injections on a program full of memory operands")
	}
	for _, inj := range rep.Injections {
		if inj.Fault.Op == isa.LEA {
			t.Errorf("lea enumerated as a data-fault site: %v", inj.Fault)
		}
	}
}

// TestReadRegs spot-checks the register liveness rules behind reg-flip
// enumeration.
func TestReadRegs(t *testing.T) {
	targets := func(in isa.Inst) map[isa.Reg]int {
		out := map[isa.Reg]int{}
		for _, rt := range readRegs(&in) {
			out[rt.reg] = rt.bits
		}
		return out
	}
	// mov rax, rbx: rbx read at 64 bits, rax write-only.
	got := targets(isa.NewInst(isa.MOV, isa.R(isa.RAX), isa.R(isa.RBX)))
	if !reflect.DeepEqual(got, map[isa.Reg]int{isa.RBX: 64}) {
		t.Errorf("mov rax, rbx reads %v", got)
	}
	// add rax, [rbx+8]: rax read-modify, rbx is an address (64 bits).
	got = targets(isa.NewInst(isa.ADD, isa.R(isa.RAX), isa.M(isa.RBX, 8)))
	if !reflect.DeepEqual(got, map[isa.Reg]int{isa.RAX: 64, isa.RBX: 64}) {
		t.Errorf("add rax, [rbx+8] reads %v", got)
	}
	// syscall: implicit dispatch + argument registers.
	got = targets(isa.NewInst(isa.SYSCALL))
	want := map[isa.Reg]int{isa.RAX: 64, isa.RDX: 64, isa.RSI: 64, isa.RDI: 64}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("syscall reads %v, want %v", got, want)
	}
	// pop rcx: reads rsp, rcx is write-only.
	got = targets(isa.NewInst(isa.POP, isa.R(isa.RCX)))
	if !reflect.DeepEqual(got, map[isa.Reg]int{isa.RSP: 64}) {
		t.Errorf("pop rcx reads %v", got)
	}
}
