package emu_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
)

// seededEntry returns the binary's entry snapshot for input in, seeded
// with its whole-image program (the way fault sessions seed theirs),
// plus the trace and steps of the reference run from it.
func seededEntry(t *testing.T, bin *elf.Binary, in []byte) (*emu.Snapshot, []emu.TraceEntry, uint64) {
	t.Helper()
	base := emu.New(bin, emu.Config{Stdin: in}).Snapshot()
	base.SeedProgram(emu.TranslateImage(base))
	rm := base.Resume(emu.Config{RecordTrace: true})
	res, _ := rm.Run()
	return base, rm.Trace, res.Steps
}

// loggedRun is one run's complete observable account: result, error,
// page log and final state digest.
type loggedRun struct {
	res    emu.Result
	err    error
	pages  map[uint64]uint64
	digest [32]byte
}

// runLogged runs m to completion and captures its account.
func runLogged(m *emu.Machine) loggedRun {
	res, err := m.Run()
	r := loggedRun{res: res, err: err, pages: maps.Clone(m.PageLog()), digest: m.StateDigest()}
	m.Release()
	return r
}

// sameLoggedRun holds a fast-path account to the single-step one: the
// same run, the same pages each first fetched at the same step, and
// the same final state.
func sameLoggedRun(t *testing.T, label string, fast, slow loggedRun) {
	t.Helper()
	sameResult(t, label, fast.res, fast.err, slow.res, slow.err)
	if !maps.Equal(fast.pages, slow.pages) {
		t.Fatalf("%s: page log divergence:\nfast=%v\nslow=%v", label, fast.pages, slow.pages)
	}
	if fast.digest != slow.digest {
		t.Fatalf("%s: final state digest divergence", label)
	}
}

// TestPageLogParity: page logging no longer forces single-stepping, so
// the micro-op fast path must log exactly what the interpreter logs —
// the same pages, each at the same first-fetch step — and run
// identically, from a cold start and from a program-seeded snapshot,
// on every catalog binary and both inputs.
func TestPageLogParity(t *testing.T) {
	for _, c := range cases.All() {
		t.Run(c.Name, func(t *testing.T) {
			bin, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range [][]byte{c.Good, c.Bad} {
				cold := func(single bool) loggedRun {
					return runLogged(emu.New(bin, emu.Config{Stdin: in, RecordPages: true, SingleStep: single}))
				}
				sameLoggedRun(t, "cold "+string(in), cold(false), cold(true))
				snap, _, _ := seededEntry(t, bin, in)
				seeded := func(single bool) loggedRun {
					return runLogged(snap.Resume(emu.Config{RecordPages: true, SingleStep: single}))
				}
				sameLoggedRun(t, "seeded "+string(in), seeded(false), seeded(true))
			}
		})
	}
}

// TestPageLogParityPageBoundary: every catalog binary's code fits one
// page, so this hand-built one puts .text 6 bytes before a page
// boundary. Its first instruction straddles the boundary, a loop runs
// on the second page, a jump leaves for a third page, and the last
// instruction falls through into an unmapped page, where the fetch
// fails. Both engines must log all four pages at the same steps.
func TestPageLogParityPageBoundary(t *testing.T) {
	const start = 0x401FFA
	text := make([]byte, 0x404000-start)
	for i := range text {
		text[i] = 0x90
	}
	put := func(addr uint64, b ...byte) { copy(text[addr-start:], b) }
	put(0x401FFA, 0x48, 0xC7, 0xC1, 0x03, 0x00, 0x00, 0x00) // mov rcx, 3 (ends on page 0x402000)
	put(0x402001, 0x48, 0xFF, 0xC9)                         // loop: dec rcx
	put(0x402004, 0x75, 0xFB)                               // jne loop
	put(0x402006, 0xE9, 0xED, 0x1F, 0x00, 0x00)             // jmp 0x403FF8
	put(0x403FF8, 0x48, 0xFF, 0xC0, 0x48, 0xFF, 0xC0)       // inc rax; inc rax; nop; nop
	bin := &elf.Binary{
		Entry:    start,
		Sections: []*elf.Section{{Name: ".text", Addr: start, Data: text, Flags: elf.FlagRead | elf.FlagExec}},
	}
	run := func(single bool) loggedRun {
		return runLogged(emu.New(bin, emu.Config{RecordPages: true, SingleStep: single}))
	}
	fast, slow := run(false), run(true)
	sameLoggedRun(t, "page boundary", fast, slow)
	want := map[uint64]uint64{0x401000: 0, 0x402000: 0, 0x403000: 8, 0x404000: 12}
	if !maps.Equal(fast.pages, want) {
		t.Errorf("page log = %v, want %v", fast.pages, want)
	}
	if fast.err == nil {
		t.Error("fall-through into the unmapped page did not fault")
	}
}

// TestProgramOverlayParity: a bit-flipped machine keeps the
// whole-image program for every uop whose bytes the flip missed. For each catalog
// binary, resume the program-seeded entry snapshot, flip each bit of
// every traced instruction's bytes, and hold the fast path (program
// overlay plus private translation) to the single-step interpreter:
// result, error text, page log and final state digest. Flips that
// change an instruction's length must be among them.
func TestProgramOverlayParity(t *testing.T) {
	for _, c := range cases.All() {
		t.Run(c.Name, func(t *testing.T) {
			bin, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			snap, trace, steps := seededEntry(t, bin, c.Bad)
			lens := map[uint64]int{}
			var addrs []uint64
			for _, e := range trace {
				if _, ok := lens[e.Addr]; !ok {
					addrs = append(addrs, e.Addr)
				}
				lens[e.Addr] = e.Len
			}
			slices.Sort(addrs)
			probe := snap.Resume(emu.Config{})
			defer probe.Release()
			resized, flips := 0, 0
			for _, addr := range addrs {
				n := lens[addr]
				var win [decode.MaxInstLen]byte
				w, err := probe.Mem.Fetch(addr, win[:])
				if err != nil {
					t.Fatal(err)
				}
				for bit := 0; bit < n*8; bit++ {
					a, b := addr+uint64(bit/8), uint(bit%8)
					run := func(single bool) loggedRun {
						m := snap.Resume(emu.Config{StepLimit: 4*steps + 1024, RecordPages: bit%2 == 0, SingleStep: single})
						if err := m.Mem.FlipBit(a, b); err != nil {
							t.Fatal(err)
						}
						return runLogged(m)
					}
					sameLoggedRun(t, fmt.Sprintf("flip %#x bit %d", a, b), run(false), run(true))
					flips++
					flipped := win
					flipped[bit/8] ^= 1 << b
					if in, err := decode.Decode(flipped[:w], addr); err == nil && in.EncLen != n {
						resized++
					}
				}
			}
			if resized == 0 {
				t.Errorf("%d flips, none changed an instruction's length", flips)
			}
		})
	}
}
