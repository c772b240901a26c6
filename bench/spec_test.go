package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the benchmark contract and
// to the code: the workloads are the benchmark's, and the end-to-end names
// are exactly the ones a run computes.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, want at most 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command,end_to_end,paths,per_layer,run_seconds,workloads"; strings.Join(got, ",") != want {
		t.Errorf("keys %v, want %s", got, want)
	}
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}

	if len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("command has %d strings", len(s.Command))
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(s.Paths) < 1 || len(s.Paths) > 16 {
		t.Errorf("%d paths", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}

	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why %q", w.Name, w.Why)
		}
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(s.PerLayer))
	}
	maxBound := 0.0
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
	}
	for _, m := range s.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	setup, ok := s.metric("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound == nil || *setup.Bound != maxBound {
		t.Errorf("setup_s must be declared in s, lower, with the largest bound: %+v", setup)
	}

	// The end-to-end names a run computes are exactly the declared ones.
	res := []*result{{Latency: true, Wall: time.Second, CPU: time.Second, Faults: 10, MaxRSSKB: 1024, Slowdown: 1}}
	rec := &record{}
	if err := rec.setMetrics(s.EndToEnd, endToEndMetrics([]float64{1}, [][]*result{res})); err != nil {
		t.Error(err)
	}
}
