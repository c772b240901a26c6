package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/r2r/reinforce/bench/internal/verdict"
)

const (
	// traceSample and minTraceSample bound how many of the workload's
	// requests a traced run replays; past the minimum, sampling also
	// stops once two fifths of the time budget are spent, leaving the
	// rest to the replay and the layer probes.
	traceSample    = 20
	minTraceSample = 5

	// layersTimeout bounds the in-process replay and probes.
	layersTimeout = 150 * time.Second
)

// traced runs the workload's first requests as subprocesses, then has
// bench/layers replay them in-process with a span around every call
// into a layer and run the layer probes, and reports the per-layer
// metrics. End-to-end numbers are never taken from a traced run.
func (b *bench) traced(w *workload) (*record, error) {
	if b.layers == "" {
		bin, err := goBuild("bench", "./layers", "r2r-layers")
		if err != nil {
			return nil, err
		}
		b.layers = bin
	}
	e, err := setup(w, b.seed, b.r2r)
	if err != nil {
		return nil, err
	}
	e.gold = b.gold

	m := verdict.Manifest{
		Workload: w.name, Seed: b.seed, R2R: b.r2r,
		Work:  filepath.Join(e.work, "replay"),
		Trace: filepath.Join(b.out, "trace-"+w.name+".json"),
	}
	var results []*result
	start := time.Now()
sample:
	for r := 0; ; r++ {
		for _, req := range w.round(e, r) {
			if len(results) == traceSample || len(results) >= minTraceSample && time.Since(start) > b.budget*2/5 {
				break sample
			}
			res := e.send(req)
			results = append(results, res)
			if res.Err == nil {
				var cmds [][][]byte
				for _, c := range e.commands(req) {
					cmds = append(cmds, verdict.Args(c.args))
				}
				m.Requests = append(m.Requests, verdict.Request{
					ID: req.ID, Kind: req.Kind, In: manifestInput(req.In), CacheDir: e.reqCacheDir(req),
					Commands: cmds, Out: res.Out, P: res.P, H: res.H,
				})
			}
		}
	}
	for _, in := range e.set.heads() {
		m.Probes = append(m.Probes, *manifestInput(in))
	}

	out, err := runLayers(b.layers, e.work, m)
	if err != nil {
		return nil, err
	}
	rec := newRecord(w.name, b.seed, 1, results)
	e.invariants(rec)
	for _, f := range out.Failed {
		fmt.Fprintf(os.Stderr, "bench: FAIL replay %s\n", f)
		rec.Failed++
		rec.Correct = false
	}
	return rec, rec.setMetrics(b.spec.PerLayer, out.Metrics)
}

// manifestInput hands an input to the traced pass.
func manifestInput(in *input) *verdict.Input {
	if in == nil {
		return nil
	}
	return &verdict.Input{Name: in.Name, Case: in.Case, Path: in.Path, Good: in.Good, Bad: in.Bad}
}

// reqCacheDir is the store a request reads, if any.
func (e *env) reqCacheDir(req request) string {
	if req.Kind == verdict.KindRerun {
		return e.cacheDir(req.In)
	}
	return ""
}

// runLayers writes the manifest and runs bench/layers on it.
func runLayers(bin, work string, m verdict.Manifest) (*verdict.Layers, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(work, "manifest.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), layersTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-manifest", path)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var out verdict.Layers
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("traced pass output: %w", err)
	}
	return &out, nil
}
