package harden

import (
	"math/rand"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/patch"
)

// runPair executes original and hardened binaries on the same input and
// compares observables.
func runPair(t *testing.T, label string, orig, hardened *elf.Binary, input []byte) {
	t.Helper()
	r1, e1 := emu.New(orig, emu.Config{Stdin: input}).Run()
	r2, e2 := emu.New(hardened, emu.Config{Stdin: input, StepLimit: 32 << 20}).Run()
	if e1 != nil {
		t.Fatalf("%s: original crashed on %q: %v", label, input, e1)
	}
	if e2 != nil {
		t.Fatalf("%s: hardened crashed on %q: %v", label, input, e2)
	}
	if r1.ExitCode != r2.ExitCode || string(r1.Stdout) != string(r2.Stdout) {
		t.Errorf("%s: input %q: (%q,%d) vs (%q,%d)",
			label, input, r1.Stdout, r1.ExitCode, r2.Stdout, r2.ExitCode)
	}
	if r2.ExitCode == fault.DetectedExitCode {
		t.Errorf("%s: faulthandler fired on a clean run", label)
	}
}

// TestPipelinesEquivalentOnRandomInputs is the global functional-safety
// property: every hardening pipeline must preserve the program's
// observable behaviour on arbitrary inputs, not just the oracle pair.
func TestPipelinesEquivalentOnRandomInputs(t *testing.T) {
	r := rand.New(rand.NewSource(2021))

	for _, c := range cases.All() {
		bin := c.MustBuild()

		fp, err := patch.Harden(bin, patch.Options{Good: c.Good, Bad: c.Bad})
		if err != nil {
			t.Fatal(err)
		}
		hy, err := Hybrid(bin, HybridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dup, err := patch.HardenAll(bin, patch.StyleFallthrough)
		if err != nil {
			t.Fatal(err)
		}
		dupIR, err := DuplicationIR(bin)
		if err != nil {
			t.Fatal(err)
		}

		variants := []struct {
			name string
			bin  *elf.Binary
		}{
			{"faulter-patcher", fp.Binary},
			{"hybrid", hy.Binary},
			{"duplication", dup.Binary},
			{"duplication-ir", dupIR.Binary},
		}

		// Oracle inputs plus random ones (random inputs are almost
		// always rejections; near-miss inputs poke the comparison
		// boundary).
		inputs := [][]byte{c.Good, c.Bad, nil, c.Good[:len(c.Good)/2]}
		for i := 0; i < 12; i++ {
			in := make([]byte, len(c.Good))
			r.Read(in)
			inputs = append(inputs, in)
		}
		nearMiss := append([]byte(nil), c.Good...)
		nearMiss[r.Intn(len(nearMiss))] ^= 1 << r.Intn(8)
		inputs = append(inputs, nearMiss)

		for _, v := range variants {
			for _, in := range inputs {
				runPair(t, c.Name+"/"+v.name, bin, v.bin, in)
			}
		}
	}
}

// TestHardenedBinariesDetectNotGrant: for every pipeline, re-running the
// skip campaign on the hardened binary must produce zero successes; any
// fault either behaves like the bad input, crashes, or is detected.
func TestHardenedBinariesDetectNotGrant(t *testing.T) {
	models := []fault.Model{fault.ModelSkip}
	for _, c := range cases.All() {
		bin := c.MustBuild()
		fp, err := patch.Harden(bin, patch.Options{Good: c.Good, Bad: c.Bad, Models: models})
		if err != nil {
			t.Fatal(err)
		}
		hy, err := Hybrid(bin, HybridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name string
			bin  *elf.Binary
		}{
			{"faulter-patcher", fp.Binary},
			{"hybrid", hy.Binary},
		} {
			rep, err := fault.Run(fault.Campaign{
				Binary: v.bin, Good: c.Good, Bad: c.Bad, Models: models,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(rep.Successful()); n != 0 {
				t.Errorf("%s/%s: %d successful skip faults on hardened binary",
					c.Name, v.name, n)
			}
			if rep.Count(fault.OutcomeDetected) == 0 {
				t.Errorf("%s/%s: countermeasures never fired under attack", c.Name, v.name)
			}
		}
	}
}
