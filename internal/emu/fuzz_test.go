package emu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
)

// TestMachineTotalityOnRandomCode: executing arbitrary bytes must never
// panic the emulator — every run ends in a clean exit, a classified
// fault, or the step limit. This is the property the bit-flip fault
// model leans on (mutated instruction streams are arbitrary bytes).
func TestMachineTotalityOnRandomCode(t *testing.T) {
	r := rand.New(rand.NewSource(0xFA117))
	for trial := 0; trial < 2000; trial++ {
		code := make([]byte, 64)
		r.Read(code)
		bin := &elf.Binary{
			Entry: 0x401000,
			Sections: []*elf.Section{
				{Name: ".text", Addr: 0x401000, Data: code, Flags: elf.FlagRead | elf.FlagExec},
				{Name: ".data", Addr: 0x600000, Data: make([]byte, 4096), Flags: elf.FlagRead | elf.FlagWrite},
			},
		}
		m := New(bin, Config{Stdin: []byte("fuzz"), StepLimit: 10000})
		res, err := m.Run()
		if err == nil && !res.Exited {
			t.Fatalf("trial %d: run finished without exit or error", trial)
		}
	}
}

// TestMachineTotalityOnMutatedProgram: take a valid program and flip
// every bit of its text one at a time; no mutation may panic or hang the
// emulator beyond its budget.
func TestMachineTotalityOnMutatedProgram(t *testing.T) {
	code := [][]byte{
		{0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00}, // mov rax, 60
		{0x48, 0x31, 0xFF},                         // xor rdi, rdi
		{0x0F, 0x05},                               // syscall
	}
	var text []byte
	for _, c := range code {
		text = append(text, c...)
	}
	for bit := 0; bit < len(text)*8; bit++ {
		mutated := append([]byte(nil), text...)
		mutated[bit/8] ^= 1 << (bit % 8)
		bin := &elf.Binary{
			Entry: 0x401000,
			Sections: []*elf.Section{
				{Name: ".text", Addr: 0x401000, Data: mutated, Flags: elf.FlagRead | elf.FlagExec},
			},
		}
		m := New(bin, Config{StepLimit: 10000})
		res, err := m.Run()
		if err == nil && !res.Exited {
			t.Fatalf("bit %d: no exit and no error", bit)
		}
	}
}

// TestICacheInvalidation: executing self-modified code must see the new
// bytes (the decoded-instruction cache keys off the memory generation).
func TestICacheInvalidation(t *testing.T) {
	// Program: first run of the loop writes a new immediate into the
	// exit-code mov, then jumps back over it.
	//   _start:
	//     mov rdi, 1          ; patched below to mov rdi, 9
	//     cmp rbx, 0
	//     jne exit            ; second pass exits
	//     mov rbx, 1
	//     lea rcx, [rip+_start]  -> via mov rcx, 0x401000
	//     mov byte ptr [rcx+3], 9   ; rewrite the imm of "mov rdi, 1"
	//     jmp _start
	//   exit: mov rax, 60; syscall
	bin := &elf.Binary{
		Entry: 0x401000,
		Sections: []*elf.Section{
			{
				Name: ".text", Addr: 0x401000,
				Flags: elf.FlagRead | elf.FlagWrite | elf.FlagExec, // writable text for the test
				Data: mustText(t,
					[]byte{0x48, 0xC7, 0xC7, 0x01, 0x00, 0x00, 0x00}, // mov rdi, 1
					[]byte{0x48, 0x83, 0xFB, 0x00},                   // cmp rbx, 0
					[]byte{0x0F, 0x85, 0x17, 0x00, 0x00, 0x00},       // jne +0x17 (exit)
					[]byte{0x48, 0xC7, 0xC3, 0x01, 0x00, 0x00, 0x00}, // mov rbx, 1
					[]byte{0x48, 0xC7, 0xC1, 0x00, 0x10, 0x40, 0x00}, // mov rcx, 0x401000
					[]byte{0xC6, 0x41, 0x03, 0x09},                   // mov byte [rcx+3], 9
					[]byte{0xE9, 0xD8, 0xFF, 0xFF, 0xFF},             // jmp _start (-0x28)
					[]byte{0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00}, // exit: mov rax, 60
					[]byte{0x0F, 0x05},                               // syscall
				),
			},
		},
	}
	m := New(bin, Config{StepLimit: 1000})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 9 {
		t.Errorf("exit = %d, want 9 (self-modified immediate not observed)", res.ExitCode)
	}
}

// FuzzUopTranslator: differential fuzzing of the micro-op fast path
// against the single-step interpreter. Arbitrary bytes become the text
// section of a minimal binary and run under three execution
// strategies: single-stepped, on the fast path translating lazily from
// a cold start, and resumed from an entry snapshot seeded with the
// whole-image program (TranslateImage). Any divergence in exit status,
// step count, error text or output is a bug in the
// translator, the image sweep or a micro-op executor (the interpreter
// is the spec).
func FuzzUopTranslator(f *testing.F) {
	// A clean exit, a hot arithmetic loop, stack traffic, a
	// decode-failure prefix and a step-limit spin.
	f.Add([]byte{
		0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00, // mov rax, 60
		0x48, 0x31, 0xFF, // xor rdi, rdi
		0x0F, 0x05, // syscall
	})
	f.Add([]byte{
		0x48, 0xC7, 0xC1, 0x20, 0x00, 0x00, 0x00, // mov rcx, 32
		0x48, 0x01, 0xC8, // add rax, rcx
		0x48, 0xFF, 0xC9, // dec rcx
		0x75, 0xF8, // jne -8
		0x0F, 0x05, // syscall (rax garbage -> fault or exit)
	})
	f.Add([]byte{
		0x50, 0x53, 0x51, // push rax/rbx/rcx
		0x59, 0x5B, 0x58, // pop rcx/rbx/rax
		0x9C, 0x9D, // pushfq; popfq
		0xC3, // ret into the void
	})
	f.Add([]byte{0x0F, 0xFF, 0xFF}) // undecodable
	f.Add([]byte{0xEB, 0xFE})       // jmp self (step-limit path)
	// A jump into the middle of a swept instruction: the linear sweep
	// decodes mov eax, imm32 at +9, so the branch target +10 inside
	// its immediate (xor rdi, rdi; nop) is off the image program and
	// translated privately, back on the program at the syscall.
	f.Add([]byte{
		0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00, // mov rax, 60
		0xEB, 0x01, // jmp +1 (into the mov below)
		0xB8, 0x48, 0x31, 0xFF, 0x90, // mov eax, 0x90ff3148
		0x0F, 0x05, // syscall
	})
	// A store into code every program already translated (the text is
	// RWX): the first pass rewrites the immediate of mov rdi, 1 and
	// jumps back, so the run must exit 9 through the rewritten uop.
	f.Add([]byte{
		0x48, 0xC7, 0xC7, 0x01, 0x00, 0x00, 0x00, // mov rdi, 1
		0x48, 0x83, 0xFB, 0x00, // cmp rbx, 0
		0x0F, 0x85, 0x17, 0x00, 0x00, 0x00, // jne exit
		0x48, 0xC7, 0xC3, 0x01, 0x00, 0x00, 0x00, // mov rbx, 1
		0x48, 0xC7, 0xC1, 0x00, 0x10, 0x40, 0x00, // mov rcx, 0x401000
		0xC6, 0x41, 0x03, 0x09, // mov byte [rcx+3], 9
		0xE9, 0xD8, 0xFF, 0xFF, 0xFF, // jmp 0x401000
		0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00, // exit: mov rax, 60
		0x0F, 0x05, // syscall
	})
	// Instruction windows cut short at the section end: a full page of
	// text, so the page after it is unmapped and fetches near the end
	// return fewer than MaxInstLen bytes. A jump over nop padding
	// reaches two instructions that still decode from their short
	// windows and a mov rax, imm32 whose window ends after four bytes.
	tail := []byte{
		0x48, 0x31, 0xFF, // xor rdi, rdi
		0x48, 0xFF, 0xC7, // inc rdi
		0x48, 0xC7, 0xC0, 0x3C, // mov rax, 60 (truncated)
	}
	page := bytes.Repeat([]byte{0x90}, 4096)
	copy(page, []byte{0xE9})
	binary.LittleEndian.PutUint32(page[1:], uint32(4096-len(tail)-5))
	copy(page[4096-len(tail):], tail)
	f.Add(page)
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) == 0 || len(code) > 4096 {
			return
		}
		run := func(cfg Config, image bool) (Result, error) {
			bin := &elf.Binary{
				Entry: 0x401000,
				Sections: []*elf.Section{
					{Name: ".text", Addr: 0x401000, Data: append([]byte(nil), code...), Flags: elf.FlagRead | elf.FlagWrite | elf.FlagExec},
					{Name: ".data", Addr: 0x600000, Data: make([]byte, 4096), Flags: elf.FlagRead | elf.FlagWrite},
				},
			}
			cfg.Stdin, cfg.StepLimit = []byte("fuzz"), 4096
			var m *Machine
			if image {
				s := New(bin, Config{}).Snapshot()
				s.SeedProgram(TranslateImage(s))
				m = s.Resume(cfg)
			} else {
				m = New(bin, cfg)
			}
			res, err := m.Run()
			m.Release()
			return res, err
		}
		rs, es := run(Config{SingleStep: true}, false)
		rf, ef := run(Config{}, false)
		sameRun(t, "fast", rf, ef, rs, es)
		ri, ei := run(Config{}, true)
		sameRun(t, "image", ri, ei, rs, es)
	})
}

// flagProbeWriters are the flag writers FuzzUopStateParity's seeds put
// in front of every flag reader, one seed program each: every record
// kind, ADC/SBB (which materialize), INC/DEC carrying a CMP's pending
// CF, and a generic (interpreted) INC that must see that CF too.
var flagProbeWriters = []string{
	"add rax, rbx", "sub rax, rbx", "cmp rbx, rax", "and rax, rbx",
	"or eax, ebx", "xor al, bl", "test rax, rbx", "imul rax, rbx",
	"neg rax", "inc rax", "dec eax", "shl rax, 3", "shr rax, 1",
	"sar eax, 7", "adc rax, rbx", "sbb al, bl",
	"cmp rbx, rax\n\tinc rax", "cmp rax, rbx\n\tdec al",
	"cmp rbx, rax\n\tinc qword ptr [rsp-16]",
}

// flagProbe is a program that executes writer before each flag reader
// the fast path has: Jcc and SETcc on all 16 conditions (answered from
// the record or after materializing it), a shift by 0 between writer
// and reader, ADC and SBB, PUSHFQ, a POPFQ that overwrites a pending
// record, and the exit syscall, which copies RFLAGS into R11. Branch
// outcomes fold into r10 and SETcc results into r13, so a wrong
// condition changes the final state.
func flagProbe(writer string) string {
	conds := []string{"o", "no", "b", "ae", "e", "ne", "be", "a", "s", "ns", "p", "np", "l", "ge", "le", "g"}
	var b strings.Builder
	b.WriteString(".text\n_start:\n\tmov rax, 0x7fffffff\n\tmov rbx, 0x80000001\n\tmov r9, 0x8d5\n")
	step := func(body string) {
		fmt.Fprintf(&b, "\tadd rax, 0x1234567\n\timul rbx, rax\n\t%s\n%s", writer, body)
	}
	for i, c := range conds {
		step(fmt.Sprintf("\tj%s t%d\n\tlea r10, [r10+1]\nt%d:\n\tlea r10, [r10+r10]\n", c, i, i))
		step(fmt.Sprintf("\tshl rdx, 0\n\tset%s cl\n\tlea r13, [r13+r13]\n\tlea r13, [r13+rcx]\n", c))
	}
	step("\tadc r14, rbx\n")
	step("\tsbb r15, rax\n")
	step("\tpushfq\n\tpop r12\n")
	step("\tpush r9\n\tpopfq\n\tsetle cl\n\tja z0\n\tlea r10, [r10+1]\nz0:\n")
	step("\tmov edi, 0\n\tmov eax, 60\n\tsyscall\n")
	return b.String()
}

// byteLoadProbes are straight-line programs around the run loop's
// in-place byte load, each with the step index of its first load:
// FuzzUopStateParity pauses every one before, at and after that load.
// The .data page is materialized and in its TLB slot from the start; a
// stack page far below RSP is mapped but never written, so it reads 0
// through ReadUint and stays unmaterialized; address 0x10 is unmapped;
// and three stack pages 16 pages apart share one TLB slot — two
// written, one never — and are loaded in turn, evicting each other.
var byteLoadProbes = []struct {
	src  string
	load int
}{
	{`mov rbx, 0x600000
	mov byte ptr [rbx+5], 0xa7
	movzx eax, byte ptr [rbx+5]
	movzx rcx, byte ptr [rbx+6]
	add rax, rcx
	mov edi, eax`, 2},
	{`lea rbx, [rsp-0x10000]
	movzx eax, byte ptr [rbx]
	movzx ecx, byte ptr [rbx+0x7ff]
	or eax, ecx
	mov edi, eax`, 1},
	{`mov rbx, 0x10
	mov ecx, 3
	movzx eax, byte ptr [rbx]
	mov edi, eax`, 2},
	{`lea rbx, [rsp-0x2000]
	mov byte ptr [rbx], 0x11
	mov byte ptr [rbx-0x10000], 0x22
	mov ecx, 4
again:
	movzx eax, byte ptr [rbx]
	movzx edx, byte ptr [rbx-0x10000]
	movzx esi, byte ptr [rbx-0x20000]
	add r8, rax
	add r8, rdx
	add r8, rsi
	dec ecx
	jne again
	mov rdi, r8`, 4},
}

// byteLoadProbe assembles probe into a text section that exits with
// the status the probe leaves in edi.
func byteLoadProbe(tb testing.TB, probe string) []byte {
	tb.Helper()
	bin, err := asm.Assemble(".text\n_start:\n\t"+probe+"\n\tmov eax, 60\n\tsyscall\n", nil)
	if err != nil {
		tb.Fatalf("probe %q: %v", probe, err)
	}
	return bin.Section(".text").Data
}

// stateParityBinary is the layout FuzzUopStateParity runs code in.
func stateParityBinary(code []byte) *elf.Binary {
	return &elf.Binary{
		Entry: 0x401000,
		Sections: []*elf.Section{
			{Name: ".text", Addr: 0x401000, Data: append([]byte(nil), code...), Flags: elf.FlagRead | elf.FlagWrite | elf.FlagExec},
			{Name: ".data", Addr: 0x600000, Data: make([]byte, 4096), Flags: elf.FlagRead | elf.FlagWrite},
		},
	}
}

// FuzzUopStateParity: full-state differential of the fast path against
// the single-step interpreter at pause points. FuzzUopTranslator
// compares only results, steps and output, so a stale RFLAGS at a pause
// (a lazy flag record runFast did not materialize) would pass it — yet
// the continuation memo and the pair pruner digest machines exactly
// there. Both engines run arbitrary code to RunUntil(stop) and must
// agree on the state digest; then both run to completion and must
// agree on digest, result and error text.
func FuzzUopStateParity(f *testing.F) {
	for i, w := range flagProbeWriters {
		bin, err := asm.Assemble(flagProbe(w), nil)
		if err != nil {
			f.Fatalf("writer %q: %v", w, err)
		}
		code := bin.Section(".text").Data
		f.Add(code, uint16(0))
		f.Add(code, uint16(7+13*i))
		f.Add(code, uint16(len(code)))
	}
	for _, p := range byteLoadProbes {
		code := byteLoadProbe(f, p.src)
		for stop := p.load - 1; stop <= p.load+2; stop++ {
			f.Add(code, uint16(stop))
		}
	}
	f.Add([]byte{0xEB, 0xFE}, uint16(100)) // jmp self: pause inside a hang
	f.Fuzz(func(t *testing.T, code []byte, stop uint16) {
		if len(code) == 0 || len(code) > 4096 {
			return
		}
		checkStateParity(t, stateParityBinary(code), uint64(stop))
	})
}

// checkStateParity runs bin on the fast path and single-stepped to
// RunUntil(stop), then to completion, and requires the same result,
// error text and state digest at both points.
func checkStateParity(t *testing.T, bin *elf.Binary, stop uint64) {
	t.Helper()
	mf := New(bin, Config{Stdin: []byte("fuzz"), StepLimit: 4096})
	ms := New(bin, Config{Stdin: []byte("fuzz"), StepLimit: 4096, SingleStep: true})
	defer mf.Release()
	defer ms.Release()
	rf, doneF, ef := mf.RunUntil(stop)
	rs, doneS, es := ms.RunUntil(stop)
	sameRun(t, "pause", rf, ef, rs, es)
	if doneF != doneS {
		t.Fatalf("pause at %d: done fast=%v slow=%v", stop, doneF, doneS)
	}
	if mf.StateDigest() != ms.StateDigest() {
		t.Fatalf("pause at %d: state digests differ (rflags fast %#x, slow %#x)", stop, mf.Rflags, ms.Rflags)
	}
	rf, ef = mf.Run()
	rs, es = ms.Run()
	sameRun(t, "run", rf, ef, rs, es)
	if mf.StateDigest() != ms.StateDigest() {
		t.Fatalf("final state digests differ (rflags fast %#x, slow %#x)", mf.Rflags, ms.Rflags)
	}
}

// TestByteLoadEdges: the run loop's in-place byte load must fault where
// ReadUint does — on a page in its TLB slot that is not readable (a
// write-only data section, execute-only code reading itself) — and a
// load from a mapped page nobody wrote must read 0 without
// materializing it, on both engines.
func TestByteLoadEdges(t *testing.T) {
	for _, c := range []struct {
		name       string
		probe      string
		text, data uint32
	}{
		{"write-only data", "mov rbx, 0x600000\n\tmovzx eax, byte ptr [rbx]\n\tmov edi, eax", elf.FlagRead | elf.FlagExec, elf.FlagWrite},
		{"execute-only code", "movzx eax, byte ptr [rip+_start]\n\tmov edi, eax", elf.FlagExec, elf.FlagRead | elf.FlagWrite},
	} {
		bin := stateParityBinary(byteLoadProbe(t, c.probe))
		bin.Sections[0].Flags, bin.Sections[1].Flags = c.text, c.data
		for stop := uint64(0); stop <= 3; stop++ {
			checkStateParity(t, bin, stop)
		}
		m := New(bin, Config{})
		_, err := m.Run()
		var mf *MemFault
		if !errors.As(err, &mf) || mf.Kind != AccessRead {
			t.Errorf("%s: run ended with %v, want a read fault", c.name, err)
		}
		m.Release()
	}

	bin := stateParityBinary(byteLoadProbe(t, byteLoadProbes[1].src))
	for _, single := range []bool{false, true} {
		m := New(bin, Config{SingleStep: single})
		res, err := m.Run()
		if err != nil || res.ExitCode != 0 {
			t.Errorf("single-step %v: unwritten stack page: exit %d, %v", single, res.ExitCode, err)
		}
		pa := (DefaultStackTop - 64 - 0x10000) &^ uint64(pageSize-1)
		if m.Mem.lookupPage(pa) != nil {
			t.Errorf("single-step %v: a byte load materialized stack page %#x", single, pa)
		}
		m.Release()
	}
}

// sameRun requires a run to match the single-step reference: error
// text, exit status, step count and output.
func sameRun(t *testing.T, label string, rf Result, ef error, rs Result, es error) {
	t.Helper()
	if (ef == nil) != (es == nil) {
		t.Fatalf("%s: error divergence: got=%v slow=%v", label, ef, es)
	}
	if ef != nil && es != nil && ef.Error() != es.Error() {
		t.Fatalf("%s: error text divergence: got=%v slow=%v", label, ef, es)
	}
	if rf.Exited != rs.Exited || rf.ExitCode != rs.ExitCode || rf.Steps != rs.Steps {
		t.Fatalf("%s: run divergence: got=(%v,%d,%d) slow=(%v,%d,%d)",
			label, rf.Exited, rf.ExitCode, rf.Steps, rs.Exited, rs.ExitCode, rs.Steps)
	}
	if string(rf.Stdout) != string(rs.Stdout) || string(rf.Stderr) != string(rs.Stderr) {
		t.Fatalf("%s: output divergence: got=%q/%q slow=%q/%q", label, rf.Stdout, rf.Stderr, rs.Stdout, rs.Stderr)
	}
}

// FuzzProgramOverlay: differential fuzzing of the program overlay. The
// whole-image program of arbitrary code seeds its entry snapshot; a
// fork then flips one bit of the code (pos, bit) before the
// fetch of dynamic step `step`, and the fast path — which keeps serving
// the program's uops the flip missed — must match the single-step
// interpreter: result, error text and final state digest.
func FuzzProgramOverlay(f *testing.F) {
	f.Add(loopText, uint16(immAddr-0x401000), uint8(0), uint8(1))                    // flip inside a Seq chain
	f.Add(loopText, uint16(immAddr-0x401000), uint8(0x80), uint8(0))                 // same flip before the first step
	f.Add(loopText, uint16(0x0F), uint8(1), uint8(3))                                // add's opcode 01 -> 03: operands swap
	f.Add(loopText, uint16(0x0E), uint8(0x82), uint8(5))                             // REX 48 -> 4C on the second pass
	f.Add(loopText, uint16(0x14), uint8(0x83), uint8(4))                             // jne (75) -> jge (7D) at its first fetch
	f.Add(loopText, uint16(0x20), uint8(2), uint8(200))                              // flip step past the end: no flip
	f.Add([]byte{0x48, 0x83, 0xC0, 0x05, 0xEB, 0xFA}, uint16(1), uint8(1), uint8(2)) // 83 -> 81: imm8 -> imm32 length change
	f.Fuzz(func(t *testing.T, code []byte, pos uint16, bit uint8, step uint8) {
		if len(code) == 0 || len(code) > 1024 {
			return
		}
		snap := seededSnapshot(t, code)
		addr := 0x401000 + uint64(int(pos)%len(code))
		at := uint64(step)
		cfg := Config{StepLimit: 4096}
		cfg.AddFetchHookWindow(func(m *Machine) {
			if m.Steps == at {
				_ = m.Mem.FlipBit(addr, uint(bit%8))
			}
		}, at, at+1)
		m, _ := overlayPair(t, snap, cfg, func(*Machine) {})
		m.Release()
	})
}

func mustText(t *testing.T, chunks ...[]byte) []byte {
	t.Helper()
	var out []byte
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}
