package oracle

import (
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
)

// TestEntrySnapshotMatchesCold: every input resumed from a binary's
// shared entry snapshot (the path Diff takes) runs exactly like a cold
// emu.New run of the same input, with the same behavior (exit, output,
// error text) after the same number of steps. TestCatalogEquivalence cannot see a bug of the shared path that hits
// original and hardened alike — an entry snapshot carrying a stale
// input stream, say, which only shows when the stale bytes change what
// the program does, hence the direct check that the snapshot carries
// none — so each binary is checked against itself here: the original
// and its hybrid, order2 and patch artifacts, over the case's inputs,
// the generic ones and a nil input.
func TestEntrySnapshotMatchesCold(t *testing.T) {
	n := 32
	if testing.Short() {
		n = 8
	}
	const limit = DefaultStepLimit
	for _, c := range cases.Corpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			orig, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			bins := map[string]*elf.Binary{"original": orig}
			for _, p := range []string{PipelineHybrid, PipelineOrder2, PipelinePatch} {
				if bins[p], err = Harden(c, p); err != nil {
					t.Fatalf("%s: %v", p, err)
				}
			}
			inputs := append(CaseInputs(c, n, 1), GenericInputs(n, 1, 0)...)
			inputs = append(inputs, nil)
			for _, name := range []string{"original", PipelineHybrid, PipelineOrder2, PipelinePatch} {
				bin := bins[name]
				s := entry(bin)
				if m := s.Resume(emu.Config{}); len(m.Stdin) != 0 {
					t.Fatalf("%s: entry snapshot carries stdin %q, which a nil input would read", name, m.Stdin)
				} else {
					m.Release()
				}
				for i, in := range inputs {
					cold, coldErr := emu.New(bin, emu.Config{Stdin: in, StepLimit: limit}).Run()
					m := s.Resume(emu.Config{Stdin: in, StepLimit: limit})
					res, err := m.Run()
					got, want := behaviorOf(res, err), behaviorOf(cold, coldErr)
					m.Release()
					if got != want || res.Steps != cold.Steps {
						t.Fatalf("%s input %d (%x): entry snapshot %+v after %d steps, cold run %+v after %d steps",
							name, i, in, got, res.Steps, want, cold.Steps)
					}
				}
			}
		})
	}
}

// BenchmarkOracleDiff times the oracle step of a harden request: one
// case's order2 (hybrid plus skip window) artifact differenced against
// its original over 32 generic inputs on one worker.
func BenchmarkOracleDiff(b *testing.B) {
	c, err := cases.Get("crtsign")
	if err != nil {
		b.Fatal(err)
	}
	orig, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	hard, err := Harden(c, PipelineOrder2)
	if err != nil {
		b.Fatal(err)
	}
	inputs := GenericInputs(32, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Diff(orig, hard, inputs, Options{Workers: 1}); !rep.Equivalent() {
			b.Fatalf("crtsign order2 diverges: %+v", rep.Divergent[0])
		}
	}
}
