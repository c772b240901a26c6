package emu

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/isa"
)

// flagWriters are the ops whose specialized uops leave a flag record
// (NEG records as sub of (0, a)), plus ADC and SBB, which read CF and so
// materialize the pending record and compute eagerly.
var flagWriters = []isa.Op{
	isa.ADD, isa.SUB, isa.CMP, isa.AND, isa.OR, isa.XOR, isa.TEST, isa.IMUL,
	isa.NEG, isa.INC, isa.DEC, isa.SHL, isa.SHR, isa.SAR, isa.ADC, isa.SBB,
}

// regInst builds the register form of op at width w: op rax, rbx for
// ALU ops, op rax for unary ops, op rax, count for shifts.
func regInst(op isa.Op, w uint8, count int64) isa.Inst {
	in := isa.Inst{Op: op, Addr: 0x401000, EncLen: 3, Cond: isa.NoCond}
	in.Dst = isa.Operand{Kind: isa.KindReg, Reg: isa.RAX, Width: w}
	switch op {
	case isa.NEG, isa.INC, isa.DEC:
	case isa.SHL, isa.SHR, isa.SAR:
		in.Src = isa.Operand{Kind: isa.KindImm, Imm: count, Width: 1}
	default:
		in.Src = isa.Operand{Kind: isa.KindReg, Reg: isa.RBX, Width: w}
	}
	return in
}

// lazyPair runs instruction sequences on two machines started from the
// same registers and RFLAGS: eager through the interpreter's exec (the
// spec), lazy through the run loop, leaving flag records pending
// between instructions exactly as runFast does.
type lazyPair struct {
	eager, lazy Machine
}

func newLazyPair(rflags, a, b uint64) *lazyPair {
	p := &lazyPair{}
	for _, m := range []*Machine{&p.eager, &p.lazy} {
		m.Rflags = rflags
		m.Regs[isa.RAX] = a
		m.Regs[isa.RBX] = b
	}
	p.lazy.Mem = NewMemory()
	return p
}

// loopProgram translates in followed by a NOP at its fall-through
// address: a two-uop stream for runInLoop.
func loopProgram(in isa.Inst) *Program {
	nop := isa.Inst{Op: isa.NOP, Addr: in.Addr + uint64(in.EncLen), EncLen: 1, Cond: isa.NoCond}
	return translate([]isa.Inst{in, nop})
}

// runInLoop executes the first uop of p (see loopProgram) on m through
// runUops with a step limit that stops before the NOP, so a flag
// record the uop writes stays pending as it would between two uops. A
// branch out of the program ends the loop at the target: m's address
// space maps no code to translate there.
func runInLoop(m *Machine, p *Program) error {
	m.prog = p
	m.RIP = p.base
	_, err := m.runUops(m.Steps + 1)
	return err
}

// jccPrograms holds one Jcc per condition, branching from jccAddr to
// jccTarget, each as a loopProgram.
const jccAddr, jccTarget = 0x401000, 0x402000

var jccPrograms = func() (ps [16]*Program) {
	for c := range ps {
		ps[c] = loopProgram(isa.Inst{Op: isa.JCC, Cond: isa.Cond(c), Addr: jccAddr, EncLen: 2, Target: jccTarget})
	}
	return ps
}()

// step executes in on both machines and checks the lazy side against
// the eager one without materializing: registers, the record's CF, and
// all 16 conditions answered from the record — by a Jcc run through
// the loop and by cond, SETcc's reader.
func (p *lazyPair) step(t *testing.T, in isa.Inst, label func() string) {
	t.Helper()
	var u uop
	translateInst(&in, &u)
	if u.kind == uGeneric {
		t.Fatalf("%s: %v did not specialize", label(), in.Op)
	}
	before := p.lazy.cc
	if err := p.eager.exec(&in); err != nil {
		t.Fatalf("%s: exec: %v", label(), err)
	}
	steps := p.lazy.Steps
	if err := runInLoop(&p.lazy, loopProgram(in)); err != nil {
		t.Fatalf("%s: run loop: %v", label(), err)
	}
	if p.lazy.Steps != steps+1 || p.lazy.RIP != in.Addr+uint64(in.EncLen) {
		t.Fatalf("%s: loop stopped at step %d, rip %#x; want step %d at the nop", label(), p.lazy.Steps, p.lazy.RIP, steps+1)
	}
	if p.lazy.Regs != p.eager.Regs {
		t.Fatalf("%s: registers differ: lazy=%#x eager=%#x", label(), p.lazy.Regs[:2], p.eager.Regs[:2])
	}
	isShift := in.Op == isa.SHL || in.Op == isa.SHR || in.Op == isa.SAR
	switch {
	case isShift && in.Src.Imm&0x3F == 0:
		if p.lazy.cc != before {
			t.Fatalf("%s: a shift by 0 touched the record", label())
		}
	case in.Op == isa.ADC || in.Op == isa.SBB:
		if p.lazy.cc.kind != ccNone || p.lazy.Rflags != p.eager.Rflags {
			t.Fatalf("%s: ADC/SBB left rflags %#x (record %d), eager %#x", label(), p.lazy.Rflags, p.lazy.cc.kind, p.eager.Rflags)
		}
	default:
		if p.lazy.cc.kind == ccNone {
			t.Fatalf("%s: no record written", label())
		}
		if want := p.eager.Rflags&isa.FlagCF != 0; p.lazy.cc.cf != want {
			t.Fatalf("%s: record CF %v, eager CF %v", label(), p.lazy.cc.cf, want)
		}
	}
	for c := isa.Cond(0); c < 16; c++ {
		want := isa.CondHolds(c, p.eager.Rflags)
		cc, rf, steps := p.lazy.cc, p.lazy.Rflags, p.lazy.Steps
		if err := runInLoop(&p.lazy, jccPrograms[c]); err != nil {
			t.Fatalf("%s: j%v: %v", label(), c, err)
		}
		if taken := p.lazy.RIP == jccTarget; taken != want {
			t.Fatalf("%s: j%v taken = %v from the record, cond %v on eager rflags %#x", label(), c, taken, want, p.eager.Rflags)
		}
		p.lazy.cc, p.lazy.Rflags, p.lazy.Steps = cc, rf, steps
		got := p.lazy.cond(c)
		p.lazy.cc, p.lazy.Rflags = cc, rf
		if got != want {
			t.Fatalf("%s: cond %v = %v from the record, %v on eager rflags %#x", label(), c, got, want, p.eager.Rflags)
		}
	}
}

// materialize flushes the lazy side and requires the eager RFLAGS.
func (p *lazyPair) materialize(t *testing.T, label func() string) {
	t.Helper()
	p.lazy.flushFlags()
	if p.lazy.cc.kind != ccNone || p.lazy.Rflags != p.eager.Rflags {
		t.Fatalf("%s: materialized rflags %#x, eager %#x", label(), p.lazy.Rflags, p.eager.Rflags)
	}
}

// edgeOperands are the operand values where flag definitions turn:
// zero, one, the nibble carry, sign bits and their neighbours, masks
// and all-ones, each with garbage above the width on some entries.
func edgeOperands(w uint8) []uint64 {
	mask, sign := widthMask(w), signBit(w)
	return []uint64{
		0, 1, 2, 0x0F, 0x10, sign - 1, sign, sign + 1, mask - 1, mask,
		^uint64(0), ^mask | 1, 0xDEAD_BEEF_0000_0000 | sign,
	}
}

var shiftCounts = []int64{0, 1, 2, 7, 8, 9, 31, 32, 33, 63}

// TestLazyFlagsMatchEager: a flag record is a deferred call of the
// interpreter's flag function. For every writer kind at widths 1, 4 and
// 8, over edge and random operands under random initial RFLAGS, and
// with INC, DEC, ADC, SBB and a shift by 0 chained after every kind
// (INC/DEC carry CF through the pending record), the micro-op run
// through the loop must produce exec's registers, its record's CF must
// be exec's CF, every condition answered from the record must hold
// exactly when isa.CondHolds does on exec's RFLAGS, and materializing
// the record must produce exec's RFLAGS. Width 8 covers the loop's
// in-place 64-bit cases, width 1 and 4 the general forms.
func TestLazyFlagsMatchEager(t *testing.T) {
	r := rand.New(rand.NewSource(0x1a2f))
	widths := []uint8{1, 4, 8}
	followers := []isa.Op{isa.INC, isa.DEC, isa.ADC, isa.SBB, isa.SHL}

	run := func(rflags, a, b uint64, w uint8, ops []isa.Op, counts []int64) {
		p := newLazyPair(rflags, a, b)
		label := func() string { return fmt.Sprintf("ops %v width %d", ops, w) }
		for i, op := range ops {
			p.step(t, regInst(op, w, counts[i]), label)
		}
		p.materialize(t, label)
	}

	// Edge operands: every writer, then every follower chained after it.
	for _, w := range widths {
		edges := edgeOperands(w)
		for _, op := range flagWriters {
			for _, a := range edges {
				for _, b := range edges {
					count := shiftCounts[(a^b)%uint64(len(shiftCounts))]
					rflags := r.Uint64()
					run(rflags, a, b, w, []isa.Op{op}, []int64{count})
					for _, f := range followers {
						// The follower's shift count is 0: a shift by 0
						// between a writer and a reader.
						run(rflags, a, b, w, []isa.Op{op, f}, []int64{count, 0})
					}
				}
			}
		}
	}

	// Random operands and chains of up to four instructions.
	operand := func(w uint8) uint64 {
		if r.Intn(4) == 0 {
			edges := edgeOperands(w)
			return edges[r.Intn(len(edges))]
		}
		return r.Uint64()
	}
	for i := 0; i < 100_000; i++ {
		w := widths[r.Intn(len(widths))]
		n := 1 + r.Intn(4)
		ops := make([]isa.Op, n)
		counts := make([]int64, n)
		for j := range ops {
			if j > 0 && r.Intn(2) == 0 {
				ops[j] = followers[r.Intn(len(followers))]
			} else {
				ops[j] = flagWriters[r.Intn(len(flagWriters))]
			}
			counts[j] = shiftCounts[r.Intn(len(shiftCounts))]
			if r.Intn(3) == 0 {
				counts[j] = int64(r.Intn(64))
			}
		}
		run(r.Uint64(), operand(w), operand(w), w, ops, counts)
	}
}

// hotLoopSrc is the FNV-1a hash loop the catalog's firmware checks run
// (cases.fnvLoop): xor, imul and inc write full flags every iteration,
// and the only reader is jne, which needs dec's ZF. About a million
// steps.
const hotLoopSrc = `
.text
_start:
	mov rax, 0xcbf29ce484222325
	mov rsi, 0x100000001b3
	lea rbx, [rip+buf]
	mov rcx, 170000
hash:
	movzx rdx, byte ptr [rbx]
	xor rax, rdx
	imul rax, rsi
	inc rbx
	dec rcx
	jne hash
	mov rdi, rax
	and rdi, 0x7f
	mov rax, 60
	syscall
.bss
buf: .zero 170000
`

// BenchmarkFastPathHotLoop times stepping alone on the micro-op fast
// path: one fresh machine per op runs the flag-heavy hash loop above,
// so set-up is a rounding error next to the loop's million steps. The
// buffer is .bss that is never written, so every load misses
// ReadUint's fast path (no page is materialized) and pays its
// permission check and zero fill.
func BenchmarkFastPathHotLoop(b *testing.B) {
	benchHashLoop(b, hotLoopSrc, nil)
}

// dispatchLoopSrc is hotLoopSrc after a read syscall fills the buffer
// from stdin.
var dispatchLoopSrc = strings.Replace(hotLoopSrc, "_start:\n", `_start:
	mov eax, 0
	mov edi, 0
	lea rsi, [rip+buf]
	mov edx, 170000
	syscall
`, 1)

// BenchmarkFastPathDispatch times the same loop over a buffer a read
// syscall filled: every load hits a materialized page, as nearly all
// loads of the catalog's fault sweeps do, so the loop measures micro-op
// dispatch rather than ReadUint's miss path.
func BenchmarkFastPathDispatch(b *testing.B) {
	stdin := make([]byte, 170000)
	for i := range stdin {
		stdin[i] = byte(i*131 + 7)
	}
	benchHashLoop(b, dispatchLoopSrc, stdin)
}

// benchHashLoop runs src to its exit on a fresh machine per op and
// reports the time per emulated step.
func benchHashLoop(b *testing.B, src string, stdin []byte) {
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	for i := 0; i < b.N; i++ {
		m := New(bin, Config{Stdin: stdin})
		res, err := m.Run()
		if err != nil || !res.Exited {
			b.Fatalf("run: exited=%v err=%v", res.Exited, err)
		}
		steps += res.Steps
		m.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}
