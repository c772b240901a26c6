// Package oracle is the differential-execution oracle: the machine
// check that hardening preserves behavior off the fault path.
//
// The hardening pipelines transform a binary aggressively — lifted,
// rewritten, relowered, patched, emitted — and the whole methodology
// rests on one contract: with no fault injected, the hardened binary is
// observationally equivalent to the original on every input, not just
// the two oracle inputs the fault campaigns use. This package makes
// that contract checkable: it generates a deterministic per-case input
// corpus (the accepted and rejected inputs, boundary shapes, and seeded
// adversarial mutations), runs original and hardened under the
// emulator for each input, and asserts equivalence of the
// syscall-visible surface — exit status, stdout bytes, stderr bytes,
// and crash class. Anything the program can tell the operating system
// is compared; what is deliberately *not* compared is anything below
// the syscall boundary (step counts, register traffic, code layout),
// which hardening changes by design.
//
// Results are deterministic and worker-count invariant: inputs are
// generated by a seeded splitmix64 stream and verdicts are indexed by
// input position, so `r2r oracle` reports are bit-identical whether the
// differential runs on one worker or sixteen.
package oracle

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
)

// DefaultStepLimit bounds each emulated run — the same generous budget
// the corpus campaigns use, enough for hardened variants of every
// registered case.
const DefaultStepLimit = 32 << 20

// maxDivergent caps the per-input detail a Report carries (the
// Divergences count is always the full total; only the itemized list is
// truncated, and Report.Truncated says so).
const maxDivergent = 16

// Options tune a differential run.
type Options struct {
	// Workers is the number of parallel input evaluations (default
	// GOMAXPROCS). Results are bit-identical for any worker count.
	Workers int

	// StepLimit bounds each emulated run (default DefaultStepLimit).
	StepLimit uint64
}

// Divergence is one input on which original and hardened behavior
// differ: the equivalence contract is violated. Field names the first
// differing component in the fixed comparison order crash, exit,
// stdout, stderr.
type Divergence struct {
	Index    int    `json:"index"`
	Input    string `json:"input"` // hex
	Field    string `json:"field"`
	Original string `json:"original"`
	Hardened string `json:"hardened"`
}

// Report is the outcome of one differential run.
type Report struct {
	Inputs      int          `json:"inputs"`
	Divergences int          `json:"divergences"`
	Divergent   []Divergence `json:"divergent,omitempty"`
	Truncated   bool         `json:"divergent_truncated,omitempty"`
}

// Equivalent reports whether the run found no divergence.
func (r *Report) Equivalent() bool { return r.Divergences == 0 }

// behavior is the syscall-visible surface of one emulated run.
type behavior struct {
	crashed bool
	crash   string // crash class (error text); "" for clean exits
	exit    int
	stdout  string
	stderr  string
}

// entry returns the binary's entry-state snapshot (sections loaded,
// stack mapped, RIP at entry) seeded with its whole-image micro-op
// program, so every input forks one loaded image and one translation
// instead of loading and translating the binary per run. The snapshot
// carries no stdin: Resume keeps a snapshot's stream when handed none,
// so a nil input reads as empty, as on a fresh machine.
func entry(bin *elf.Binary) *emu.Snapshot {
	s := emu.New(bin, emu.Config{}).Snapshot()
	s.SeedProgram(emu.TranslateImage(s))
	return s
}

// observe runs one input from the entry snapshot and releases the
// machine once its behavior is copied out.
func observe(s *emu.Snapshot, in []byte, limit uint64) behavior {
	m := s.Resume(emu.Config{Stdin: in, StepLimit: limit})
	b := behaviorOf(m.Run())
	m.Release()
	return b
}

// behaviorOf copies a finished run's syscall-visible surface out of its
// result.
func behaviorOf(res emu.Result, err error) behavior {
	b := behavior{
		exit:   res.ExitCode,
		stdout: string(res.Stdout),
		stderr: string(res.Stderr),
	}
	if err != nil {
		b.crashed = true
		b.crash = err.Error()
	}
	return b
}

// compare returns the first divergence between two behaviors, or nil.
// Crash classes are compared as booleans plus message: a run that
// crashes differently (page fault vs step limit) diverges, but two
// clean exits only compare exit/stdout/stderr.
func compare(idx int, in []byte, o, h behavior) *Divergence {
	d := func(field, ov, hv string) *Divergence {
		return &Divergence{
			Index:    idx,
			Input:    hex.EncodeToString(in),
			Field:    field,
			Original: ov,
			Hardened: hv,
		}
	}
	if o.crashed != h.crashed || o.crash != h.crash {
		return d("crash", crashLabel(o), crashLabel(h))
	}
	if !o.crashed && o.exit != h.exit {
		return d("exit", fmt.Sprint(o.exit), fmt.Sprint(h.exit))
	}
	if o.stdout != h.stdout {
		return d("stdout", fmt.Sprintf("%q", o.stdout), fmt.Sprintf("%q", h.stdout))
	}
	if o.stderr != h.stderr {
		return d("stderr", fmt.Sprintf("%q", o.stderr), fmt.Sprintf("%q", h.stderr))
	}
	return nil
}

func crashLabel(b behavior) string {
	if !b.crashed {
		return "clean exit"
	}
	return b.crash
}

// Diff runs original and hardened under the emulator for every input
// and reports each divergence of the syscall-visible surface. Each
// binary is loaded and translated once (entry); every input resumes
// from that snapshot. The report is deterministic: verdicts are indexed
// by input position, so worker scheduling cannot reorder them.
func Diff(orig, hardened *elf.Binary, inputs [][]byte, opt Options) *Report {
	limit := opt.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(inputs) {
		workers = len(inputs)
	}
	if workers < 1 {
		workers = 1
	}

	o, h := entry(orig), entry(hardened)
	divs := make([]*Divergence, len(inputs))
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&cursor, 1)) - 1
				if i >= len(inputs) {
					return
				}
				in := inputs[i]
				divs[i] = compare(i, in, observe(o, in, limit), observe(h, in, limit))
			}
		}()
	}
	wg.Wait()

	rep := &Report{Inputs: len(inputs)}
	for _, d := range divs {
		if d == nil {
			continue
		}
		rep.Divergences++
		if len(rep.Divergent) < maxDivergent {
			rep.Divergent = append(rep.Divergent, *d)
		} else {
			rep.Truncated = true
		}
	}
	return rep
}

// splitmix64 is the deterministic stream behind every generator in this
// package: one uint64 of state, sequence fixed by the seed.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// nameSeed folds a case name into the seed so each case draws an
// independent deterministic stream.
func nameSeed(name string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64() ^ seed
}
