package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/oracle"
)

// variantsPerCase is how many oracle-screened variants join each
// catalog case: parent plus 19 variants makes 100 distinct binaries
// over the five cases.
const variantsPerCase = 19

// input is one generated binary plus the oracle inputs of its case.
type input struct {
	Name      string // "pincheck" or "pincheck~v3"
	Case      string
	ELF       []byte
	Good, Bad []byte
	Path      string // where writeInputs put the ELF
}

// inputSet is the seeded input of every workload: per catalog case, the
// parent and its variants in a seeded order.
type inputSet struct {
	seed  uint64
	cases [][]*input // catalog order; each case's inputs in seeded order
}

// genInputs builds the input set of a seed. The seed decides which
// variants exist (oracle.Variants) and the order each case's inputs are
// drawn in; the r2r commands only ever see the generated files.
func genInputs(seed uint64) (*inputSet, error) {
	set := &inputSet{seed: seed}
	for ci, c := range cases.Corpus() {
		if bytes.IndexByte(c.Good, 0) >= 0 || bytes.IndexByte(c.Bad, 0) >= 0 {
			return nil, fmt.Errorf("case %s: oracle input holds a NUL byte and cannot be a command-line argument", c.Name)
		}
		all := append([]*cases.Case{c}, oracle.Variants(c, variantsPerCase, seed)...)
		ins := make([]*input, len(all))
		for i, v := range all {
			bin, err := v.Build()
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", v.Name, err)
			}
			img, err := bin.Bytes()
			if err != nil {
				return nil, fmt.Errorf("encode %s: %w", v.Name, err)
			}
			ins[i] = &input{Name: v.Name, Case: c.Name, ELF: img, Good: v.Good, Bad: v.Bad}
		}
		r := rand.New(rand.NewPCG(seed, 0x1a9e7+uint64(ci)))
		r.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
		set.cases = append(set.cases, ins)
	}
	return set, nil
}

// writeInputs stores every ELF of the set under dir.
func (s *inputSet) writeInputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, ins := range s.cases {
		for _, in := range ins {
			in.Path = filepath.Join(dir, in.Name+".elf")
			if err := os.WriteFile(in.Path, in.ELF, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// round returns the inputs of one round: one input per case, the case
// order shuffled per round. Every round carries the same case mix, so
// a run that ends after any number of rounds measures the same blend;
// shuffling spreads each case over the run, so one noisy stretch of the
// machine does not land on a single case. Round r draws input r of each
// case's seeded order, cycling once a case runs out.
func (s *inputSet) round(r int) []*input {
	out := make([]*input, len(s.cases))
	for ci, ins := range s.cases {
		out[ci] = ins[r%len(ins)]
	}
	rng := rand.New(rand.NewPCG(s.seed, 0x7a11e+uint64(r)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// heads returns the first input of each case's seeded order, in catalog
// order: the binaries the rerun workload and the layer probes use.
func (s *inputSet) heads() []*input {
	out := make([]*input, len(s.cases))
	for ci, ins := range s.cases {
		out[ci] = ins[0]
	}
	return out
}
