// Package trace captures and compares execution traces. The faulter uses
// a recorded trace of the "bad" input run to enumerate dynamic fault
// injection points (paper §IV-B1: "for each offset in that trace ...").
package trace

import (
	"fmt"

	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
)

// Trace is a recorded instruction-level execution trace together with
// the run's outcome.
type Trace struct {
	Entries []emu.TraceEntry
	Result  emu.Result
	Err     error // non-nil if the traced run crashed
}

// Capture runs the binary on the given stdin and records its trace.
func Capture(bin *elf.Binary, stdin []byte, stepLimit uint64) *Trace {
	m := emu.New(bin, emu.Config{
		Stdin:       stdin,
		StepLimit:   stepLimit,
		RecordTrace: true,
	})
	res, err := m.Run()
	return &Trace{Entries: m.Trace, Result: res, Err: err}
}

// Len returns the number of executed instructions.
func (t *Trace) Len() int { return len(t.Entries) }

// Sites returns the unique instruction addresses in execution order of
// first appearance.
func (t *Trace) Sites() []uint64 {
	seen := make(map[uint64]bool, len(t.Entries))
	var out []uint64
	for _, e := range t.Entries {
		if !seen[e.Addr] {
			seen[e.Addr] = true
			out = append(out, e.Addr)
		}
	}
	return out
}

// Summary renders a short human-readable description.
func (t *Trace) Summary() string {
	status := "exit"
	detail := fmt.Sprintf("code %d", t.Result.ExitCode)
	if t.Err != nil {
		status = "crash"
		detail = t.Err.Error()
	}
	return fmt.Sprintf("%d instructions, %d unique sites, %s (%s)",
		t.Len(), len(t.Sites()), status, detail)
}
