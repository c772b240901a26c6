package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// golden is the committed verdict of one request: the digest of its
// normalized outputs and of the artifacts it writes.
type golden struct {
	Out string `json:"out"`
	P   string `json:"p,omitempty"`
	H   string `json:"h,omitempty"`
}

// goldens holds every request verdict of one seed, keyed by request id.
type goldens struct {
	Seed     uint64            `json:"seed"`
	Requests map[string]golden `json:"requests"`
}

func goldenPath(seed uint64) string {
	return filepath.Join("bench", "testdata", fmt.Sprintf("verdicts-seed%d.json", seed))
}

// loadGoldens reads the committed verdicts of a seed, or returns nil
// when the seed has none (only the seed-independent checks apply then).
func loadGoldens(seed uint64) (*goldens, error) {
	data, err := os.ReadFile(goldenPath(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(seed), err)
	}
	if g.Seed != seed {
		return nil, fmt.Errorf("%s: holds seed %d", goldenPath(seed), g.Seed)
	}
	return &g, nil
}

// check compares a request's verdict with its golden.
func (g *goldens) check(res *result) error {
	want, ok := g.Requests[res.ID]
	switch {
	case !ok:
		return fmt.Errorf("no golden verdict for this request")
	case res.Out != want.Out:
		return fmt.Errorf("normalized output differs from the golden verdict")
	case res.P != want.P:
		return fmt.Errorf("patched artifact differs from the golden verdict")
	case res.H != want.H:
		return fmt.Errorf("hybrid artifact differs from the golden verdict")
	}
	return nil
}

// updateGoldens recomputes the verdict of every request a run of the
// seed can send — each input of every workload once — and rewrites the
// seed's golden file.
func updateGoldens(seed uint64, r2r string) error {
	g := &goldens{Seed: seed, Requests: map[string]golden{}}
	for _, w := range workloads {
		e, err := setup(w, seed, r2r)
		if err != nil {
			return err
		}
		rounds := 0
		for _, ins := range e.set.cases {
			rounds = max(rounds, len(ins))
		}
		for r := 0; r < rounds; r++ {
			for _, req := range w.round(e, r) {
				if _, done := g.Requests[req.ID]; done {
					continue
				}
				res := e.do(req)
				if err := e.verify(req, res); err != nil {
					return fmt.Errorf("%s: %w", req.ID, err)
				}
				g.Requests[req.ID] = golden{Out: res.Out, P: res.P, H: res.H}
			}
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d verdicts so far\n", w.name, len(g.Requests))
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(seed), append(data, '\n'), 0o644)
}
