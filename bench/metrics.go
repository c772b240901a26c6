package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"time"

	"github.com/r2r/reinforce/bench/internal/stats"
)

// spec is BENCHMARK.json: the workloads and the declared metrics, with
// their units, directions and regression bounds.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"` // "lower" or "higher"
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric looks a declared metric up by name.
func (s *spec) metric(name string) (metricSpec, bool) {
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// endToEndMetrics derives the user-visible metrics of one run from its
// set-up times and measured rounds, every time scaled by the machine's
// slowdown around it (see slowdown). Every metric is computed per round
// and reported as the median round. A round holds one latency sample per
// catalog case, so its percentiles always pick the same cases, and a
// slow stretch the calibration missed moves one round, not the run.
// Rates divide by the round's summed request time, which leaves out the
// benchmark's own work between requests. Memory is each request's peak
// resident set (its largest r2r process), averaged over the round: the
// largest single input of a seed would otherwise decide it.
func endToEndMetrics(setups []float64, rounds [][]*result) map[string]float64 {
	var p50, p75, reqRate, faultRate, cpuPer, rss []float64
	for _, round := range rounds {
		var lat []float64
		var wall, cpu float64 // scaled, in seconds and milliseconds
		var faults, rssKB int64
		for _, res := range round {
			ms := float64(res.Wall) / float64(time.Millisecond) / res.Slowdown
			if res.Latency {
				lat = append(lat, ms)
			}
			wall += ms / 1000
			cpu += float64(res.CPU) / float64(time.Millisecond) / res.Slowdown
			faults += res.Faults
			rssKB += res.MaxRSSKB
		}
		n := float64(len(round))
		p50 = append(p50, stats.Percentile(lat, 50))
		p75 = append(p75, stats.Percentile(lat, 75))
		reqRate = append(reqRate, n/wall)
		faultRate = append(faultRate, float64(faults)/wall)
		cpuPer = append(cpuPer, cpu/n)
		rss = append(rss, float64(rssKB)/1024/n)
	}
	return map[string]float64{
		"setup_s":            stats.Median(setups),
		"request_p50_ms":     stats.Median(p50),
		"request_p75_ms":     stats.Median(p75),
		"requests_per_s":     stats.Median(reqRate),
		"faults_per_s":       stats.Median(faultRate),
		"cpu_ms_per_request": stats.Median(cpuPer),
		"peak_rss_mb":        stats.Median(rss),
	}
}

// record is one run: what the last output line carries, plus the run's
// identity for results.json and `bench compare`.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Slowdown  float64                `json:"slowdown,omitempty"` // median over the requests; 0 for traced runs
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRecord(workload string, seed uint64, trace int, results []*result) *record {
	rec := &record{Workload: workload, Seed: seed, Trace: trace, Correct: true, Attempted: len(results)}
	for _, r := range results {
		if r.Err != nil {
			rec.Failed++
			rec.Correct = false
		}
	}
	return rec
}

// setMetrics attaches the declared metrics, in their declared units,
// and fails unless the computed set matches the declared set exactly.
func (rec *record) setMetrics(declared []metricSpec, got map[string]float64) error {
	rec.Metrics = make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(got) != len(declared) {
		var extra []string
		for name := range got {
			if _, ok := rec.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", extra)
	}
	return nil
}

// print writes the run's metrics one per line, by name with unit.
func (rec *record) print(w io.Writer) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed %d trace %d: %d attempted, %d failed\n", rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	if rec.Slowdown != 0 {
		fmt.Fprintf(w, "# machine slowdown %.4f: wall-clock times are these times multiplied by it\n", rec.Slowdown)
	}
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-12s %-34s %16.4f %s\n", rec.Workload, n, m.Value, m.Unit)
	}
}

// resultsFile is results.json: every run made with one -out directory,
// appended run by run, so a set of runs can be compared as a whole.
type resultsFile struct {
	Runs []*record `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResults(path string, recs []*record) error {
	f, err := readResults(path)
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, recs...)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printLast writes the final output line. With several runs (every
// workload), metric names are prefixed with "<workload>/"; end-to-end
// and per-layer names never collide.
func printLast(recs []*record) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, rec := range recs {
		line.Correct = line.Correct && rec.Correct
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		for n, v := range rec.Metrics {
			if len(recs) > 1 {
				n = rec.Workload + "/" + n
			}
			line.Metrics[n] = v
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
