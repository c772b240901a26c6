package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/r2r/reinforce/bench/internal/verdict"
	"github.com/r2r/reinforce/internal/cases"
)

// TestMetricNames runs the layer probes on the smallest catalog case
// and checks that the pass emits exactly the per-layer metrics
// BENCHMARK.json declares, and that a replayed request reproduces the
// verdict digests of an identical replay.
func TestMetricNames(t *testing.T) {
	dir := t.TempDir()
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "pincheck.elf")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	in := verdict.Input{Name: "pincheck", Case: "pincheck", Path: path, Good: c.Good, Bad: c.Bad}

	// The subprocess verdict comes from a first replay here; the pass
	// must reproduce it.
	rp := &replayer{t: newTracer(), work: dir}
	first, err := rp.replay(verdict.Request{ID: "sweep/pincheck", Kind: verdict.KindSweep, In: &in})
	if err != nil {
		t.Fatal(err)
	}
	m := verdict.Manifest{
		Workload: "sweep", Seed: 1, Work: filepath.Join(dir, "replay"), Trace: filepath.Join(dir, "trace.json"),
		Requests: []verdict.Request{{ID: "sweep/pincheck", Kind: verdict.KindSweep, In: &in, Out: first.Out}},
		Probes:   []verdict.Input{in},
	}
	out, err := measure(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) != 0 {
		t.Errorf("replay failed: %v", out.Failed)
	}

	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
	}
	for name := range out.Metrics {
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("emitted %d metrics %v, BENCHMARK.json declares %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("emitted %s where BENCHMARK.json declares %s", got[i], want[i])
		}
	}
	if _, err := os.Stat(m.Trace); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}
