package main

import (
	"testing"

	"github.com/r2r/reinforce/bench/internal/verdict"
)

// digests maps input name to ELF digest.
func digests(t *testing.T, seed uint64) map[string]string {
	t.Helper()
	set, err := genInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, ins := range set.cases {
		for _, in := range ins {
			out[in.Name] = verdict.Digest(in.ELF)
		}
	}
	return out
}

func TestInputsSeeded(t *testing.T) {
	a, b := digests(t, 1), digests(t, 1)
	if len(a) != 5*(1+variantsPerCase) {
		t.Errorf("seed 1 generated %d binaries, want %d", len(a), 5*(1+variantsPerCase))
	}
	for name, d := range a {
		if b[name] != d {
			t.Errorf("seed 1 regenerated %s differently", name)
		}
	}
	distinct := map[string]bool{}
	for _, d := range a {
		distinct[d] = true
	}
	if len(distinct) != len(a) {
		t.Errorf("seed 1 has %d distinct binaries among %d", len(distinct), len(a))
	}
	other := digests(t, 2)
	same := 0
	for name, d := range other {
		if a[name] == d {
			same++
		}
	}
	// The five catalog parents are seed-independent; the variants are not.
	if same == len(other) {
		t.Error("seeds 1 and 2 generated identical inputs")
	}
}

// TestRoundsInterleave checks the request order: every round holds one
// input of each case, and the first rounds together send every input
// exactly once before any repeats.
func TestRoundsInterleave(t *testing.T) {
	set, err := genInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	orders := map[string]bool{}
	for r := 0; r < 1+variantsPerCase; r++ {
		round := set.round(r)
		cases := map[string]bool{}
		order := ""
		for _, in := range round {
			cases[in.Case] = true
			seen[in.Name]++
			order += in.Case + ","
		}
		if len(round) != 5 || len(cases) != 5 {
			t.Fatalf("round %d holds %d inputs of %d cases, want 5 of 5", r, len(round), len(cases))
		}
		orders[order] = true
	}
	if want := 5 * (1 + variantsPerCase); len(seen) != want {
		t.Errorf("rounds sent %d distinct inputs, want all %d", len(seen), want)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("%s sent %d times in the first rounds", name, n)
		}
	}
	if len(orders) < 2 {
		t.Error("every round sends the cases in the same order")
	}
}

func TestWorkloadRounds(t *testing.T) {
	set, err := genInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{set: set}
	for _, tc := range []struct {
		workload string
		n        int
		kinds    map[string]int
	}{
		{"sweep", 5, map[string]int{verdict.KindSweep: 5}},
		{"multifault", 6, map[string]int{verdict.KindO2: 5, verdict.KindO3: 1}},
		{"harden", 5, map[string]int{verdict.KindHarden: 5}},
		{"rerun", 5, map[string]int{verdict.KindRerun: 5}},
	} {
		w, err := findWorkload(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			kinds := map[string]int{}
			for _, req := range w.round(e, r) {
				kinds[req.Kind]++
				if req.Latency != (req.Kind != verdict.KindO3) {
					t.Errorf("%s: %s latency flag %v", tc.workload, req.ID, req.Latency)
				}
			}
			for k, n := range tc.kinds {
				if kinds[k] != n {
					t.Errorf("%s round %d: %d %s requests, want %d", tc.workload, r, kinds[k], k, n)
				}
			}
		}
	}
}
