package emu_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/isa"
)

// sameResult compares two complete runs: exit status, step count, and
// both output streams must match bit for bit, as must the error state.
func sameResult(t *testing.T, label string, rf emu.Result, ef error, rs emu.Result, es error) {
	t.Helper()
	if (ef == nil) != (es == nil) {
		t.Fatalf("%s: error divergence: fast=%v slow=%v", label, ef, es)
	}
	if ef != nil && es != nil && ef.Error() != es.Error() {
		t.Fatalf("%s: error text divergence: fast=%v slow=%v", label, ef, es)
	}
	if rf.Exited != rs.Exited || rf.ExitCode != rs.ExitCode {
		t.Fatalf("%s: exit divergence: fast=(%v,%d) slow=(%v,%d)",
			label, rf.Exited, rf.ExitCode, rs.Exited, rs.ExitCode)
	}
	if rf.Steps != rs.Steps {
		t.Fatalf("%s: step divergence: fast=%d slow=%d", label, rf.Steps, rs.Steps)
	}
	if !bytes.Equal(rf.Stdout, rs.Stdout) || !bytes.Equal(rf.Stderr, rs.Stderr) {
		t.Fatalf("%s: output divergence: fast=(%q,%q) slow=(%q,%q)",
			label, rf.Stdout, rf.Stderr, rs.Stdout, rs.Stderr)
	}
}

// TestFastPathDifferential: for every case study and both inputs, the
// micro-op fast path (the default) and the forced single-step
// interpreter must produce bit-identical runs. This is the fast path's
// core contract — it is an execution strategy, never a semantic change.
func TestFastPathDifferential(t *testing.T) {
	for _, c := range cases.All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			bin, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range [][]byte{c.Good, c.Bad} {
				rf, ef := emu.New(bin, emu.Config{Stdin: in}).Run()
				rs, es := emu.New(bin, emu.Config{Stdin: in, SingleStep: true}).Run()
				sameResult(t, string(in), rf, ef, rs, es)
			}
		})
	}
}

// TestFastPathHookWindowParity: a windowed hook must observe exactly
// what the same hook observes on the single-step interpreter — the
// fast path has to drop to single-stepping across the armed window and
// may not skip past the hook's firing step.
func TestFastPathHookWindowParity(t *testing.T) {
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []uint64{0, 1, 17, 100, 1000} {
		runWith := func(singleStep bool) (uint64, []uint64, emu.Result, error) {
			var fired []uint64
			cfg := emu.Config{Stdin: c.Bad, SingleStep: singleStep}
			cfg.AddStepHookWindow(func(m *emu.Machine, in *isa.Inst) emu.StepAction {
				if m.Steps-1 == step {
					fired = append(fired, m.RIP)
					return emu.ActSkip
				}
				return emu.ActContinue
			}, step, step+1)
			m := emu.New(bin, cfg)
			res, err := m.Run()
			return res.Steps, fired, res, err
		}
		_, firedF, rf, ef := runWith(false)
		_, firedS, rs, es := runWith(true)
		if len(firedF) != len(firedS) {
			t.Fatalf("step %d: hook fired %d times fast, %d slow", step, len(firedF), len(firedS))
		}
		for i := range firedF {
			if firedF[i] != firedS[i] {
				t.Fatalf("step %d: hook saw RIP %#x fast, %#x slow", step, firedF[i], firedS[i])
			}
		}
		sameResult(t, "hooked run", rf, ef, rs, es)
	}
}

// TestFastPathSnapshotResumeParity: forking a mid-run snapshot must be
// bit-identical between the fast path and the interpreter, including
// when the fork carries an armed hook window (the injection pattern).
func TestFastPathSnapshotResumeParity(t *testing.T) {
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, _ := emu.New(bin, emu.Config{Stdin: c.Bad}).Run()
	if full.Steps < 8 {
		t.Fatalf("trace too short to fork: %d steps", full.Steps)
	}
	at, hook := full.Steps/2, full.Steps/2+full.Steps/4
	m := emu.New(bin, emu.Config{Stdin: c.Bad})
	if _, done, err := m.RunUntil(at); done || err != nil {
		t.Fatalf("prefix run ended early: done=%v err=%v", done, err)
	}
	snap := m.Snapshot()
	fork := func(singleStep bool) (emu.Result, error) {
		cfg := emu.Config{SingleStep: singleStep}
		cfg.AddStepHookWindow(func(m *emu.Machine, in *isa.Inst) emu.StepAction {
			if m.Steps-1 == hook {
				return emu.ActSkip
			}
			return emu.ActContinue
		}, hook, hook+1)
		m2 := snap.Resume(cfg)
		res, err := m2.Run()
		m2.Release()
		return res, err
	}
	rf, ef := fork(false)
	rs, es := fork(true)
	sameResult(t, "fork", rf, ef, rs, es)
}

// TestFastPathStatePauses: the fast path materializes its lazy flags
// whenever it pauses, and the continuation memo and the pair pruner
// digest machines exactly there. For every catalog binary and both
// inputs, a fast-path machine paused at every step must have the same
// state digest as the single-step machine at that step.
func TestFastPathStatePauses(t *testing.T) {
	for _, c := range cases.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			bin, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range [][]byte{c.Good, c.Bad} {
				fast := emu.New(bin, emu.Config{Stdin: in})
				slow := emu.New(bin, emu.Config{Stdin: in, SingleStep: true})
				for step := uint64(1); ; step++ {
					rf, doneF, ef := fast.RunUntil(step)
					rs, doneS, es := slow.RunUntil(step)
					if fast.StateDigest() != slow.StateDigest() {
						t.Fatalf("input %q: state digests differ at step %d (rflags fast %#x, slow %#x)",
							in, step, fast.Rflags, slow.Rflags)
					}
					if doneF != doneS {
						t.Fatalf("input %q: step %d: done fast=%v slow=%v", in, step, doneF, doneS)
					}
					if doneF {
						sameResult(t, string(in), rf, ef, rs, es)
						break
					}
				}
				fast.Release()
				slow.Release()
			}
		})
	}
}

// TestReleaseReuseIdentical: recycling machines through Release must
// never leak state between runs — a pooled machine replays exactly
// like a fresh one. Every iteration, on both inputs, is held to a
// reference run on a machine that never went back to the pools:
// result and final state digest. Some iterations first run a machine
// whose code was bit-flipped and single-stepped, so its decode map is
// full of mutated instructions when it is released: a pooled map that
// kept them would decode the next machine's code wrongly.
func TestReleaseReuseIdentical(t *testing.T) {
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	type ref struct {
		res emu.Result
		err error
		d   [32]byte
	}
	inputs := [][]byte{c.Good, c.Bad}
	refs := make([]ref, len(inputs))
	for i, in := range inputs {
		m := emu.New(bin, emu.Config{Stdin: in})
		refs[i].res, refs[i].err = m.Run()
		refs[i].d = m.StateDigest()
	}
	text := bin.Section(".text")
	for i := 0; i < 48; i++ {
		if i%3 == 2 {
			// Dirty the pools: a single-stepping machine that flipped a
			// code bit decodes mutated instructions into its map.
			m := emu.New(bin, emu.Config{Stdin: inputs[i%2], SingleStep: true, StepLimit: 4096})
			if err := m.Mem.FlipBit(text.Addr+uint64(i*7)%uint64(len(text.Data)), uint(i%8)); err != nil {
				t.Fatal(err)
			}
			m.Run()
			m.Release()
		}
		for k, in := range inputs {
			single := i%2 == 1
			m := emu.New(bin, emu.Config{Stdin: in, SingleStep: single})
			res, err := m.Run()
			d := m.StateDigest()
			m.Release()
			label := fmt.Sprintf("iteration %d input %q single-step %v", i, in, single)
			sameResult(t, label, res, err, refs[k].res, refs[k].err)
			if d != refs[k].d {
				t.Fatalf("%s: final state digest differs from the fresh machine's", label)
			}
		}
	}
}
